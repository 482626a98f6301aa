"""Span tracer that times geobalance's layers from outside the package.

``install`` wraps the public functions and methods of every geobalance
module, plus the n-D transforms of ``numpy.fft`` and ``scipy.fft``, so that
each call records a span: name, start, end and parent span.  Spans stay in
memory; ``layer_metrics`` reduces them to the per-layer figures of
BENCHMARK.json and ``write`` dumps them to one CSV file at the end of a run.

A span's self time is its duration minus the durations of its direct child
spans.  Calls made while ``recording`` is off (the untimed checks) leave no
span.  Generator functions are left unwrapped: their work runs inside the
span of whichever caller drives them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("_engine", "lattice", "modes", "interactions", "resonance",
           "dynamics", "slowmanifold", "experiments", "cli")
FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2",
             "irfft2")
# dunder methods that are public API (the graph evaluator is a callable)
PUBLIC_DUNDERS = ("__call__",)
# per-coefficient accessors: a span would cost more than the call, so their
# time stays in the caller's self time
UNTRACED = ("lattice.DomainSpec.k_factors", "lattice.DomainSpec.wavevector",
            "lattice.WaveVector.from_ints", "lattice.WaveVector.has_fast",
            "modes.EigenFrame.X", "engine.ModeTable.key_slot")

CONV_GRID = "engine.ModeTable.conv_grid"
CONV_DIRECT = "engine.ModeTable.conv_direct"
DENSE_STATE = ("engine.ModeTable.dense", "engine.ModeTable.state")
MODE_TABLE = "engine.mode_table"
INTEGRATE = "dynamics.integrate"
MANIFOLD_EVAL = ("slowmanifold.ManifoldApprox.__call__",
                 "slowmanifold.ManifoldApprox.jet")
# ManifoldApprox.remainder only delegates to remainder_direct
MANIFOLD_REMAINDER = ("slowmanifold.remainder_direct",
                      "slowmanifold.remainder_diff")
AUDIT = "resonance.audit"
SCAN = "resonance.scan_csv"


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = []
        self.counts = []  # (span index, counter name, value) from probes
        self.recording = False
        self.setup_end = 0  # spans before this index belong to set-up
        self.t0 = time.perf_counter()

    def end_setup(self):
        self.setup_end = len(self.names)

    def write(self, path, header=()):
        """One CSV row per span; times in seconds from tracer creation."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in header:
                fh.write(f"# {line}\n")
            fh.write("index,name,start_s,end_s,parent,phase\n")
            for i, name in enumerate(self.names):
                phase = "setup" if i < self.setup_end else "timed"
                fh.write(f"{i},{name},{self.start[i] - self.t0:.9f},"
                         f"{self.end[i] - self.t0:.9f},{self.parent[i]},"
                         f"{phase}\n")


def _wrap(tr: Tracer, name: str, fn, probe=None):
    perf = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tr.recording:
            return fn(*args, **kwargs)
        i = len(tr.names)
        tr.names.append(name)
        tr.parent.append(tr.stack[-1] if tr.stack else -1)
        tr.start.append(0.0)
        tr.end.append(0.0)
        tr.stack.append(i)
        t0 = perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.end[i] = perf()
            tr.start[i] = t0
            tr.stack.pop()
        if probe is not None:
            for key, value in probe(args, kwargs, out):
                tr.counts.append((i, key, value))
        return out

    return traced


# -- probes: counts read at the call boundary ------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _fft_points(args, kwargs, out):
    size = getattr(args[0], "size", 0) if args else 0
    yield "engine.fft.points", max(int(size), int(getattr(out, "size", 0)))


def _integrate_counts(args, kwargs, out):
    cfg = _arg(args, kwargs, 1, "cfg")
    yield "dynamics.steps", int(round(cfg.t_end / cfg.dt))
    yield "dynamics.records", len(out[0].times)


def _audit_counts(args, kwargs, out):
    yield "resonance.triads", out.n_triads


def _scan_counts(args, kwargs, out):
    yield "resonance.triads", out


def _cli_artifacts(args, kwargs, out):
    outdir = _arg(args, kwargs, 1, "cfg").out or "."
    total = 0
    for entry in os.scandir(outdir):
        if entry.is_file():
            total += entry.stat().st_size
    yield "cli.artifact_bytes", total


PROBES = {
    INTEGRATE: _integrate_counts,
    AUDIT: _audit_counts,
    SCAN: _scan_counts,
    "cli.run": _cli_artifacts,
}


def install(tr: Tracer, package: str = "geobalance") -> int:
    """Wrap every public function and method; returns the number wrapped."""
    mods = {short: importlib.import_module(f"{package}.{short}")
            for short in MODULES}
    repl = {}  # id(original) -> (original, wrapper)

    fft_mods = [importlib.import_module("numpy.fft")]
    try:
        fft_mods.append(importlib.import_module("scipy.fft"))
    except ImportError:
        pass
    for fm in fft_mods:
        for fname in FFT_FUNCS:
            f = getattr(fm, fname, None)
            if f is None:
                continue
            if id(f) not in repl:
                repl[id(f)] = (f, _wrap(tr, "fft." + fname, f, _fft_points))
            setattr(fm, fname, repl[id(f)][1])

    def wrappable(obj):
        return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)

    for short, mod in mods.items():
        layer = short.lstrip("_")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if wrappable(obj):
                name = f"{layer}.{attr}"
                repl[id(obj)] = (obj, _wrap(tr, name, obj, PROBES.get(name)))
            elif inspect.isclass(obj):
                for mname, meth in list(vars(obj).items()):
                    if mname.startswith("_") and mname not in PUBLIC_DUNDERS:
                        continue
                    name = f"{layer}.{attr}.{mname}"
                    if name in UNTRACED:
                        continue
                    if isinstance(meth, (classmethod, staticmethod)) \
                            and wrappable(meth.__func__):
                        setattr(obj, mname, type(meth)(
                            _wrap(tr, name, meth.__func__)))
                    elif wrappable(meth):
                        setattr(obj, mname, _wrap(tr, name, meth,
                                                  PROBES.get(name)))
    # rebind every module-level reference, from-imports included
    pkg = importlib.import_module(package)
    for mod in [pkg, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            hit = repl.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return len(repl)


# -- reduction ---------------------------------------------------------------

PER_LAYER_UNITS = {
    "engine.conv_grid.calls": "count",
    "engine.conv_grid.self_s": "s",
    "engine.conv_grid.ms_per_call": "ms",
    "engine.fft.calls": "count",
    "engine.fft.points": "count",
    "engine.fft.self_s": "s",
    "engine.conv_direct.calls": "count",
    "engine.conv_direct.self_s": "s",
    "engine.conv_direct.ms_per_call": "ms",
    "engine.conv_direct.first_call_s": "s",
    "engine.table_build_s": "s",
    "engine.dense_state.calls": "count",
    "engine.dense_state.self_s": "s",
    "modes.self_s": "s",
    "experiments.self_s": "s",
    "lattice.calls": "count",
    "lattice.self_s": "s",
    "dynamics.integrate.self_s": "s",
    "dynamics.steps": "count",
    "dynamics.records": "count",
    "dynamics.convs_per_step": "conv/step",
    "slowmanifold.eval.calls": "count",
    "slowmanifold.eval.self_s": "s",
    "slowmanifold.remainder.calls": "count",
    "slowmanifold.remainder.self_s": "s",
    "resonance.audit.self_s": "s",
    "resonance.scan.self_s": "s",
    "resonance.triads": "count",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "process.cpu_s": "s",
}


def layer_metrics(tr: Tracer, rounds: int, cpu_s: float) -> dict:
    """Per-layer figures from the spans.

    Set-up figures (table build, first direct convolution, modes and
    experiments self time) cover the cold set-up phase.  All others are
    means per timed round, so they do not depend on how many rounds fit
    into the run.
    """
    n = len(tr.names)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tr.parent[i] >= 0:
            child[tr.parent[i]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    def stats(lo, hi, match):
        calls, incl, excl = 0, 0.0, 0.0
        for i in range(lo, hi):
            if match(tr.names[i]):
                calls += 1
                incl += dur[i]
                excl += self_t[i]
        return calls, incl, excl

    def timed(match):
        return stats(tr.setup_end, n, match)

    def setup(match):
        return stats(0, tr.setup_end, match)

    def named(*names):
        return lambda s: s in names

    def layer(prefix):
        return lambda s: s.startswith(prefix + ".")

    counts = defaultdict(float)
    for i, key, value in tr.counts:
        if i >= tr.setup_end:
            counts[key] += value

    r = max(rounds, 1)
    m = {}
    for key, match in (("engine.conv_grid", named(CONV_GRID)),
                       ("engine.conv_direct", named(CONV_DIRECT))):
        calls, incl, excl = timed(match)
        m[key + ".calls"] = calls / r
        m[key + ".self_s"] = excl / r
        m[key + ".ms_per_call"] = 1e3 * incl / calls if calls else 0.0
    calls, _, excl = timed(layer("fft"))
    m["engine.fft.calls"] = calls / r
    m["engine.fft.points"] = counts["engine.fft.points"] / r
    m["engine.fft.self_s"] = excl / r
    first = next((i for i in range(n) if tr.names[i] == CONV_DIRECT), None)
    m["engine.conv_direct.first_call_s"] = dur[first] if first is not None \
        else 0.0
    m["engine.table_build_s"] = setup(named(MODE_TABLE))[1]
    calls, _, excl = timed(named(*DENSE_STATE))
    m["engine.dense_state.calls"] = calls / r
    m["engine.dense_state.self_s"] = excl / r
    m["modes.self_s"] = setup(layer("modes"))[2]
    m["experiments.self_s"] = setup(layer("experiments"))[2]
    calls, _, excl = timed(layer("lattice"))
    m["lattice.calls"] = calls / r
    m["lattice.self_s"] = excl / r

    m["dynamics.integrate.self_s"] = timed(named(INTEGRATE))[2] / r
    m["dynamics.steps"] = counts["dynamics.steps"] / r
    m["dynamics.records"] = counts["dynamics.records"] / r
    convs = 0
    for i in range(tr.setup_end, n):
        if tr.names[i] in (CONV_GRID, CONV_DIRECT):
            p = tr.parent[i]
            while p >= 0 and tr.names[p] != INTEGRATE:
                p = tr.parent[p]
            convs += p >= 0
    steps = counts["dynamics.steps"]
    m["dynamics.convs_per_step"] = convs / steps if steps else 0.0

    for key, names in (("slowmanifold.eval", MANIFOLD_EVAL),
                       ("slowmanifold.remainder", MANIFOLD_REMAINDER)):
        calls, _, excl = timed(named(*names))
        m[key + ".calls"] = calls / r
        m[key + ".self_s"] = excl / r
    m["resonance.audit.self_s"] = timed(named(AUDIT))[2] / r
    m["resonance.scan.self_s"] = timed(named(SCAN))[2] / r
    m["resonance.triads"] = counts["resonance.triads"] / r
    m["cli.self_s"] = timed(layer("cli"))[2] / r
    m["cli.artifact_bytes"] = counts["cli.artifact_bytes"] / r
    m["process.cpu_s"] = cpu_s / r
    return m
