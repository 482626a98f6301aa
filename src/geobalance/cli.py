"""Command-line front end: config parsing, deterministic artifact output,
and snapshot round-tripping.

Config files are UTF-8 key-value text: one ``key = value`` per line, ``#``
comments, unknown keys rejected.  Every flag has an environment-variable
override with prefix ``GEOBALANCE_`` (e.g. ``GEOBALANCE_OUT``); explicit
flags win over the environment.  All artifacts are plain text (CSV with
``#`` comment headers, or snapshot files) written with 17 significant
digits so reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .dynamics import ForcingSpec, SolverConfig, _whole_steps, integrate
from .experiments import (DEFAULT_KMAX, DEFAULT_MU, DEFAULT_OVERSAMPLE,
                          DEFAULT_SEED, DEFAULT_TRANSIENT, balance_scan,
                          default_forcing, manifold_scan, oscillation_dt,
                          toy_model)
from .lattice import (FRAMES, DomainSpec, SpectralState, check_reality,
                      random_state, sobolev_norm)
from .resonance import audit, scan_csv

ENV_PREFIX = "GEOBALANCE_"
SNAPSHOT_VERSION = 1
COMMANDS = ("simulate", "balance-scan", "manifold", "resonance-scan",
            "toy", "audit-identities")


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class RunConfig:
    """Validated run parameters with defaults echoed back on parse."""

    L1: float = 2.0 * math.pi
    L2: float = 2.0 * math.pi
    L3: float = 2.0 * math.pi
    kmax: float = DEFAULT_KMAX
    epsilon: float = 0.1
    mu: float = DEFAULT_MU
    dt: float = 0.0          # 0 means derive from the phase oversampling
    t_end: float = 1.0
    transient: float = DEFAULT_TRANSIENT
    window: float = DEFAULT_TRANSIENT
    oversample: int = DEFAULT_OVERSAMPLE
    seed: int = DEFAULT_SEED
    theta0: float = 0.5
    eps_grid: tuple = (0.1, 0.05, 0.025, 0.0125)
    n_grid: tuple = (0, 1)
    toy_f: complex = 1.0 + 0.0j
    toy_T: float = 40.0
    toy_dt: float = 0.001
    toy_x0: complex = 0.0 + 0.0j
    forcing_file: str = ""
    out: str = "."

    def domain(self) -> DomainSpec:
        return DomainSpec(self.L1, self.L2, self.L3)


# keyed by type name: with postponed annotations a field's type is a string
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "complex": complex,
    "tuple": lambda s: tuple(float(x) if "." in x or "e" in x.lower()
                             else int(x) for x in s.split()),
}


def parse_config(text: str) -> RunConfig:
    """Parse key-value text; reports every violation, not just the first."""
    spec = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}
    violations = []
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append(f"line {ln}: expected 'key = value', "
                              f"got {line!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in spec:
            violations.append(f"line {ln}: unknown key {key!r}")
            continue
        try:
            values[key] = spec[key](val)
        except ValueError:
            violations.append(f"line {ln}: cannot parse {key} value {val!r}")
    cfg = None
    if not violations or values:
        try:
            cfg = RunConfig(**values)
        except TypeError as exc:
            violations.append(str(exc))
    if cfg is not None:
        violations.extend(_validate(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


def _validate(cfg: RunConfig):
    v = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        for x in val if isinstance(val, tuple) else (val,):
            if isinstance(x, (float, complex)) and not cmath.isfinite(x):
                v.append(f"{f.name} must be finite, got {x!r}")
                break
    for name in ("L1", "L2", "L3"):
        if not getattr(cfg, name) > 0:
            v.append(f"{name} must be > 0")
    if not cfg.epsilon > 0:
        v.append("epsilon must be > 0")
    if cfg.mu < 0:
        v.append("mu must be >= 0")
    if not cfg.kmax > 0:
        v.append("kmax must be > 0")
    if cfg.dt < 0:
        v.append("dt must be >= 0 (0 = auto)")
    if not cfg.t_end > 0:
        v.append("t_end must be > 0")
    if cfg.transient < 0 or cfg.window <= 0:
        v.append("transient must be >= 0 and window > 0")
    if cfg.oversample < 1:
        v.append("oversample must be >= 1")
    if not 0.0 < cfg.theta0 < 1.0:
        v.append("theta0 must lie in (0, 1)")
    if any(not e > 0 for e in cfg.eps_grid):
        v.append("eps_grid entries must be > 0")
    if any(n < 0 for n in cfg.n_grid):
        v.append("n_grid entries must be >= 0")
    if any(isinstance(n, float) and not n.is_integer() for n in cfg.n_grid):
        v.append("n_grid entries must be integers")
    if not (cfg.toy_dt > 0 and cfg.toy_T > 0):
        v.append("toy_dt and toy_T must be > 0")
    elif _whole_steps(cfg.toy_T, cfg.toy_dt) is None:
        v.append(f"toy_T = {cfg.toy_T!r} must be a whole number of steps "
                 f"toy_dt = {cfg.toy_dt!r}")
    if cfg.forcing_file:
        try:
            ForcingSpec(_read_forcing(cfg.forcing_file))
        except (OSError, ValueError) as exc:
            v.append(f"forcing_file: {exc}")
    return v


def _read_forcing(path) -> SpectralState:
    """The forcing snapshot at ``path`` as lab-frame coefficients.  A
    rotated snapshot is accepted only at t = 0, where the frames agree:
    elsewhere its wave phases depend on epsilon, which it does not store."""
    st = read_snapshot(path)
    if st.frame != "lab" and st.t != 0.0:
        raise ValueError(f"a {st.frame!r} snapshot at t = {st.t:.17g} has "
                         f"no lab-frame coefficients without epsilon; "
                         f"give a 'lab' snapshot or one at t = 0")
    return st.replace(frame="lab")


def default_config_path() -> str:
    """The pinned default configuration file shipped with the package."""
    return os.path.join(os.path.dirname(__file__), "default_config.cfg")


def echo_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = " ".join(f"{x:g}" for x in val)
        elif isinstance(val, complex):
            val = f"{val.real:g}{val.imag:+g}j"
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines)


# -- snapshot io -----------------------------------------------------------

def write_snapshot(state: SpectralState, path) -> None:
    """Plain-text snapshot; bit-exact round trip via 17-digit decimals."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"geobalance-snapshot {SNAPSHOT_VERSION}\n")
        d = state.domain
        fh.write(f"domain {d.L1:.17g} {d.L2:.17g} {d.L3:.17g}\n")
        fh.write(f"kmax {state.kmax:.17g}\n")
        fh.write(f"frame {state.frame}\n")
        fh.write(f"t {state.t:.17g}\n")
        items = state.items()
        fh.write(f"modes {len(items)}\n")
        for (l1, l2, l3, a), v in items:
            fh.write(f"{l1} {l2} {l3} {a} {v.real:.17g} {v.imag:.17g}\n")


class SnapshotError(ValueError):
    def __init__(self, msg, offset=None):
        if offset is not None:
            msg = f"{msg} (byte offset {offset})"
        super().__init__(msg)
        self.offset = offset


def read_snapshot(path) -> SpectralState:
    """The state in a file of :func:`write_snapshot`; ``SnapshotError``
    with a byte offset for any file that is not one."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"not UTF-8 text ({exc.reason})",
                            exc.start) from None
    offset = 0
    lines = []
    for ln in text.split("\n"):
        lines.append((offset, ln))
        offset += len(ln.encode("utf-8")) + 1

    def need(i, what):
        if i >= len(lines) or not lines[i][1].strip():
            off = lines[i][0] if i < len(lines) else len(data)
            raise SnapshotError(f"truncated snapshot: missing {what}", off)
        return lines[i]

    off, head = need(0, "header")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "geobalance-snapshot":
        raise SnapshotError("not a geobalance snapshot", off)
    if parts[1] != str(SNAPSHOT_VERSION):
        raise SnapshotError(
            f"incompatible snapshot version {parts[1]} "
            f"(supported: {SNAPSHOT_VERSION})", off)
    fieldsv = {}
    for i, name in enumerate(("domain", "kmax", "frame", "t", "modes"),
                             start=1):
        off, ln = need(i, name)
        key, _, rest = ln.partition(" ")
        if key != name:
            raise SnapshotError(f"expected {name!r} line, got {key!r}", off)
        fieldsv[name] = off, rest.strip()

    def value(name, parse, ok, want):
        off, raw = fieldsv[name]
        try:
            v = parse(raw)
        except ValueError:
            v = None
        if v is None or not ok(v):
            raise SnapshotError(f"bad {name} value {raw!r}: want {want}", off)
        return v

    dom = DomainSpec(*value(
        "domain", lambda s: tuple(float(x) for x in s.split()),
        lambda v: len(v) == 3 and all(0 < x < math.inf for x in v),
        "three finite lengths > 0"))
    kmax = value("kmax", float, lambda v: 0 < v < math.inf, "finite > 0")
    frame = value("frame", str, lambda v: v in FRAMES, " or ".join(FRAMES))
    t = value("t", float, math.isfinite, "finite")
    nmodes = value("modes", int, lambda v: v >= 0, "a count >= 0")
    try:
        SpectralState(dom, kmax)  # the lattice alone
    except ValueError as exc:
        raise SnapshotError(str(exc), fieldsv["kmax"][0]) from None
    coeffs, offsets = {}, {}
    for m in range(nmodes):
        off, ln = need(6 + m, f"mode row {m + 1} of {nmodes}")
        parts = ln.split()
        if len(parts) != 6:
            raise SnapshotError(
                f"mode row needs 6 fields, got {len(parts)}", off)
        try:
            l1, l2, l3, a = (int(x) for x in parts[:4])
            re, im = float(parts[4]), float(parts[5])
        except ValueError as exc:
            raise SnapshotError(f"bad mode row: {exc}", off)
        key = (l1, l2, l3, a)
        if key in offsets:
            raise SnapshotError(f"mode {key!r} repeats the row at byte "
                                f"offset {offsets[key]}", off)
        coeffs[key], offsets[key] = complex(re, im), off
    if len(lines) <= 6 + nmodes:  # the last line read has no line end
        raise SnapshotError("truncated snapshot: last line unterminated",
                            lines[-1][0])
    if len(lines) > 7 + nmodes or lines[-1][1]:
        raise SnapshotError(f"content after the {nmodes} mode rows",
                            lines[6 + nmodes][0])
    try:
        return SpectralState(dom, kmax, coeffs, frame, t)
    except ValueError:
        for key, off in offsets.items():  # name the first bad row
            try:
                SpectralState(dom, kmax, {key: 0j})
            except ValueError as exc:
                raise SnapshotError(str(exc), off) from None
        raise SnapshotError("bad mode rows", fieldsv["modes"][0]) from None


# -- identity audit --------------------------------------------------------

def _audit_identities(cfg: RunConfig, out):
    """Invariant suite over seeded constrained states; pass/fail table."""
    from .dynamics import apply_A
    from .interactions import apply_B, pairing
    from ._engine import mode_table
    from .modes import apply_L, slow_fast_split

    dom = cfg.domain()
    kmax = cfg.kmax
    rng = np.random.default_rng(cfg.seed)
    n_states = 20
    worst = dict(l_antisym=0.0, b_conserve=0.0, a_coercive=0.0, split_orth=0.0)
    vol = dom.volume
    for _ in range(n_states):
        W = random_state(dom, kmax, rng)
        Wh = random_state(dom, kmax, rng)
        n2 = vol * sobolev_norm(W) ** 2
        g2 = vol * sobolev_norm(W, 1.0) ** 2
        gh = math.sqrt(vol) * sobolev_norm(Wh, 1.0)
        worst["l_antisym"] = max(worst["l_antisym"],
                                 abs(pairing(apply_L(W), W).real) / n2)
        worst["b_conserve"] = max(
            worst["b_conserve"],
            abs(pairing(apply_B(Wh, W), W).real) / (gh * n2))
        worst["a_coercive"] = max(
            worst["a_coercive"],
            abs(pairing(apply_A(W, cfg.mu), W).real - cfg.mu * g2)
            / max(cfg.mu * g2, 1.0))
        s, f = slow_fast_split(W)
        worst["split_orth"] = max(worst["split_orth"],
                                  abs(pairing(s, f)) / n2)
    table = mode_table(dom, min(kmax, 8.0))
    # Gram matrices of the eigenframes; absent fast frames are zero rows
    gram = np.einsum("anc,bnc->nab", table.X, np.conj(table.X))
    has = np.ones((table.nk, 3), dtype=bool)
    has[:, 1:] = table.fast_ok[:, None]
    eye = np.eye(3, dtype=bool) & has[:, :, None]
    frame_dev = float(np.abs(gram - eye).max(initial=0.0))
    floor = float(np.abs(table.omega[1:, table.fast_ok]).min(initial=math.inf))
    checks = [
        ("L antisymmetry", worst["l_antisym"], 1e-12),
        ("B energy conservation", worst["b_conserve"], 1e-10),
        ("A coercivity", worst["a_coercive"], 1e-12),
        ("slow/fast orthogonality", worst["split_orth"], 1e-12),
        ("eigenframe orthonormality", frame_dev, 1e-14),
        ("frequency floor |1 - min|", abs(floor - 1.0), 0.0),
    ]
    ok_all = True
    lines = [f"# identity audit: kmax = {kmax:g}, seed = {cfg.seed}, "
             f"states = {n_states}", "check,measured,tolerance,status"]
    for name, val, tol in checks:
        ok = val <= tol
        ok_all &= ok
        lines.append(f"{name},{val:.3e},{tol:.1e},"
                     f"{'pass' if ok else 'FAIL'}")
    table = "\n".join(lines)
    print(table)
    with open(os.path.join(out, "audit_identities.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(table + "\n")
    return 0 if ok_all else 1


# -- command dispatch ------------------------------------------------------

def _forcing_for(cfg: RunConfig) -> ForcingSpec:
    if cfg.forcing_file:
        return ForcingSpec(_read_forcing(cfg.forcing_file))
    return default_forcing(cfg.domain(), cfg.kmax, seed=cfg.seed)


def run(command: str, cfg: RunConfig) -> int:
    """Dispatch one subcommand; returns the process exit status."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; "
                         f"choose from {', '.join(COMMANDS)}")
    out = cfg.out or "."
    os.makedirs(out, exist_ok=True)
    dom = cfg.domain()

    if command == "toy":
        traj = toy_model(cfg.epsilon, max(cfg.mu, 1e-300), cfg.toy_f,
                         cfg.toy_T, cfg.toy_dt, cfg.toy_x0)
        traj.to_csv(os.path.join(out, "toy.csv"))
        print(f"toy: slow point {traj.slow_point:.6g}, final distance "
              f"{traj.dist[-1]:.3e}")
        return 0

    if command == "resonance-scan":
        rep = audit(dom, cfg.kmax, cfg.theta0)
        scan_csv(dom, cfg.kmax, os.path.join(out, "resonance_scan.csv"),
                 cfg.theta0)
        print(rep.summary())
        return 0 if rep.n_bound_violations == 0 else 1

    if command == "audit-identities":
        return _audit_identities(cfg, out)

    if command == "simulate":
        forcing = _forcing_for(cfg)
        dt = cfg.dt or oscillation_dt(dom, cfg.kmax, cfg.epsilon,
                                      cfg.oversample)
        whole = _whole_steps(cfg.t_end, dt)  # SolverConfig's rounding
        nsteps = whole or max(1, math.ceil(cfg.t_end / dt))
        note = "" if whole else (f" (t_end {cfg.t_end:g} rounded up to "
                                 f"{nsteps * dt:g} ({nsteps} x dt))")
        sc = SolverConfig(eps=cfg.epsilon, mu=cfg.mu, dt=dt,
                          t_end=nsteps * dt, kmax=cfg.kmax,
                          record_every=max(1, nsteps // 500))
        state0 = SpectralState(dom, cfg.kmax, {})
        rec, final = integrate(state0, sc, forcing)
        rec.to_csv(os.path.join(out, "trajectory.csv"),
                   header_lines=[f"epsilon = {cfg.epsilon:.17g}",
                                 f"mu = {cfg.mu:.17g}",
                                 f"dt = {dt:.17g}",
                                 f"kmax = {cfg.kmax:.17g}",
                                 f"seed = {cfg.seed}"])
        write_snapshot(final, os.path.join(out, "final_state.snap"))
        print(f"simulate: {nsteps} steps{note}, final ||W|| = "
              f"{rec.e_total[-1]:.6g}, reality defect "
              f"{check_reality(final):.3e}")
        return 0

    if command == "balance-scan":
        forcing = _forcing_for(cfg)
        rep = balance_scan(cfg.eps_grid, domain=dom, kmax=cfg.kmax,
                           mu=cfg.mu, forcing=forcing,
                           transient=cfg.transient, window=cfg.window,
                           oversample=cfg.oversample)
        rep.to_csv(os.path.join(out, "balance_scan.csv"))
        print(f"balance-scan: slope {rep.slope:.4f} "
              f"({'pass' if all(rep.passed.values()) else 'FAIL'})")
        return 0 if all(rep.passed.values()) else 1

    if command == "manifold":
        forcing = _forcing_for(cfg)
        rep = manifold_scan(cfg.eps_grid, [int(n) for n in cfg.n_grid],
                            domain=dom, kmax=cfg.kmax, mu=cfg.mu,
                            forcing=forcing, transient=cfg.transient,
                            window=cfg.window, oversample=cfg.oversample)
        rep.to_csv(os.path.join(out, "manifold_scan.csv"))
        print("manifold: " + " ".join(
            f"{k}={'pass' if v else 'FAIL'}" for k, v in rep.passed.items()))
        return 0 if all(rep.passed.values()) else 1

    raise AssertionError("unreachable")


def _env_default(name, fallback):
    return os.environ.get(ENV_PREFIX + name.upper(), fallback)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="geobalance",
        description="Spectral simulator and analysis tools for rotating "
                    "stratified flow in a periodic box.")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", default=_env_default("config", None),
                    help="key-value config file")
    ap.add_argument("--out", default=_env_default("out", None),
                    help="output directory (default: current)")
    ap.add_argument("--seed", type=int,
                    default=_env_default("seed", None))
    args = ap.parse_args(argv)
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = int(args.seed)
    print(f"# geobalance {__version__}")
    print("\n".join("# " + ln for ln in echo_config(cfg).splitlines()))
    try:
        return run(args.command, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
