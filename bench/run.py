"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload march --seed 1 --seconds 50 --trace 0

The command builds the inputs of the workload's members from ``--seed``
(the timed cold set-up), runs one round of each member in turn, in one
closed loop, until ``--seconds`` have passed, checks every round's outputs
outside the timed region, reads the peak resident set, runs the costlier
oracles, and prints ``{"correct", "attempted", "failed", "metrics"}`` as
the last line of standard output.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the public functions of every
geobalance module are wrapped in spans, the per-layer metrics are printed
instead, and the spans are written to
``bench/out/trace-<workload>-seed<seed>.csv``.

``setup_s`` is the fastest of ``SETUP_SAMPLES`` cold set-ups: this
process's own and, with ``--trace 0``, the rest each timed in a fresh
``--setup-only`` process (the same set-up, then exit) started between
rounds at evenly spaced times of the run, one after another.

The package is imported from ``src/`` of the checkout this file lives in;
nothing is installed.  Exit status: 0 when every check held, 1 when a check
failed, 2 when the checkout or the arguments are unusable.
"""

import os
import sys

# one process, one thread: pin BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
UNITS = {"ops_per_s": "op/s", "run_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}
# cold set-ups timed per run: this process's own, and the rest each in a
# fresh process started at evenly spaced times during the timed rounds
SETUP_SAMPLES = 16


def process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start / os.sysconf("SC_CLK_TCK"))


def cold_setup(args) -> float:
    """Time one cold set-up in a fresh process; raise if it fails."""
    p = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-only"], capture_output=True, text=True, timeout=60)
    if p.returncode != 0:
        raise RuntimeError(f"set-up process exited {p.returncode}: "
                           f"{p.stderr.strip()[-500:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])["setup_s"]


def checked(check):
    """Run one check; a check that raises on a malformed output fails."""
    try:
        return check()
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        traceback.print_exc()
        return [f"{check.__qualname__} raised {exc!r}"]


def main(argv=None) -> int:
    age0, t0 = process_age(), time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "geobalance", "__init__.py")):
        print(f"error: no geobalance sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import geobalance
    if os.path.dirname(os.path.abspath(geobalance.__file__)) != \
            os.path.join(SRC, "geobalance"):
        print(f"error: imported {geobalance.__file__}, not the checkout's "
              f"sources", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.recording = True
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    members = []
    out = os.path.join(BENCH, "out", "setup-only" if args.setup_only else "")
    for cls in workloads.WORKLOADS[args.workload]:
        outdir = os.path.join(out, cls.name)
        os.makedirs(outdir, exist_ok=True)
        members.append(cls(args.seed, outdir))
    setup_s = age0 + time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer:
        tracer.end_setup()

    problems = []
    setups = [setup_s]

    def sample_setups(until):
        while len(setups) < until and not problems:  # none after a failure
            try:
                setups.append(cold_setup(args))
            except (RuntimeError, OSError, ValueError,
                    subprocess.TimeoutExpired) as exc:
                problems.append(f"cold set-up {len(setups)}: {exc}")

    times = {m.name: [] for m in members}
    attempted = failed = 0
    cpu = 0.0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < args.seconds:
        if not tracer:  # spread the set-up samples over the run
            sample_setups(min(SETUP_SAMPLES,
                              1 + int(elapsed * SETUP_SAMPLES / args.seconds)))
        for m in members:  # one round of each member, in turn
            if tracer:
                tracer.recording = True
            c0, r0 = time.process_time(), time.perf_counter()
            try:
                m.run_round()
            except Exception:  # a failed round counts all its ops as failed
                traceback.print_exc()
                ok = False
            else:
                ok = True
            dt = time.perf_counter() - r0
            cpu += time.process_time() - c0
            if tracer:
                tracer.recording = False
            attempted += m.ops_per_round
            if ok:
                times[m.name].append(dt)
                problems += checked(m.check_round)
            else:
                failed += m.ops_per_round

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not tracer:
        sample_setups(SETUP_SAMPLES)
    for m in members:
        problems += checked(m.check_final)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, ts in times.items():
        if ts:
            q = statistics.quantiles(ts, n=4) if len(ts) > 1 else ts * 3
            print(f"{name}: {len(ts)} rounds, round_s min {min(ts):.4f} q1 "
                  f"{q[0]:.4f} median {q[1]:.4f} q3 {q[2]:.4f}",
                  file=sys.stderr)
    print(f"{args.workload}: cold set-ups "
          f"{' '.join(f'{x:.3f}' for x in setups)} s", file=sys.stderr)

    rounds = min(len(ts) for ts in times.values())
    # fastest round of each member: host interference only ever adds time
    fastest = {name: min(ts, default=0.0) for name, ts in times.items()}
    if tracer:
        path = os.path.join(BENCH, "out",
                            f"trace-{args.workload}-seed{args.seed}.csv")
        tracer.write(path, header=[
            f"workload = {args.workload}", f"seed = {args.seed}",
            f"rounds = {rounds}", f"setup_s = {setup_s:.9f}"]
            + [f"fastest_round_s {k} = {v:.9f}" for k, v in fastest.items()])
        lm = spans.layer_metrics(tracer, rounds, cpu)
        metrics = {k: {"value": v, "unit": spans.PER_LAYER_UNITS[k]}
                   for k, v in lm.items()}
    else:
        run_s = sum(fastest.values()) if rounds else 0.0
        ops = sum(m.ops_per_round for m in members)
        values = {
            "ops_per_s": ops / run_s if run_s else 0.0,
            "run_s": run_s,
            # fastest cold set-up: as with rounds, load only adds time
            "setup_s": min(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in values.items()}
    correct = not problems and rounds > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
