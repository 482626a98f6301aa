"""Reference figures for the benchmark README, one line per figure.

    python3 bench/reference.py

Each time is the fastest of repeated calls over about one second (at least
three calls), with BLAS and OpenMP pinned to one thread as in run.py.  The
direct kernel and its triad table are not measured at kmax 8: the table has
about 44M entries, about 1.8 GB at 40 bytes each, before the build's
temporaries.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from geobalance import DomainSpec, SolverConfig, SpectralState, audit, \
    integrate, random_state  # noqa: E402
from geobalance._engine import ModeTable  # noqa: E402
from geobalance.experiments import default_forcing, oscillation_dt  # noqa

DOM = DomainSpec()


def fastest(fn, budget=1.0, least=3):
    best, spent, n = float("inf"), 0.0, 0
    while spent < budget or n < least:
        t = time.perf_counter()
        fn()
        dt = time.perf_counter() - t
        best, spent, n = min(best, dt), spent + dt, n + 1
    return best


def main():
    for kmax in (4.0, 6.0, 8.0):
        tab = ModeTable(DOM, kmax)
        w = tab.dense(random_state(DOM, kmax, 1))
        tab.conv_grid(w, w)
        dims = tab._grid[0]
        ms = 1e3 * fastest(lambda: tab.conv_grid(w, w))
        print(f"conv_grid kmax {kmax:g} (nk {tab.nk}, grid "
              f"{'x'.join(map(str, dims))}): {ms:.3f} ms/call")
        if kmax > 6:
            continue
        t = time.perf_counter()
        tab._build_triads()
        build = time.perf_counter() - t
        entries = len(tab._triads[0])
        ms = 1e3 * fastest(lambda: tab.conv_direct(w, w))
        print(f"conv_direct kmax {kmax:g}: {ms:.3f} ms/call; triad table "
              f"{entries} entries, built in {build:.3f} s")
        del tab

    kmax, eps, n = 6.0, 0.05, 20
    forcing = default_forcing(DOM, kmax)
    dt = oscillation_dt(DOM, kmax, eps)
    rest = SpectralState(DOM, kmax, {})
    for every, label in ((n, "without a record"), (1, "with a record")):
        cfg = SolverConfig(eps=eps, mu=0.5, dt=dt, t_end=n * dt, kmax=kmax,
                           record_every=every)
        s = fastest(lambda: integrate(rest, cfg, forcing), budget=2.0)
        print(f"IF-RK4 step kmax 6 {label}: {1e3 * s / n:.3f} ms "
              f"(fastest {n}-step march / {n})")

    rep = [None]
    s = fastest(lambda: rep.__setitem__(0, audit(DOM, 8.0)), budget=0.0)
    print(f"audit(kmax=8): {s:.3f} s for {rep[0].n_triads} triads")

    sys.path.insert(0, BENCH)
    import spans
    tr = spans.Tracer()
    tr.recording = True
    plain = lambda: None  # noqa: E731
    traced = spans._wrap(tr, "noop", plain)
    cost = [fastest(lambda: [f() for _ in range(10000)], budget=0.5)
            for f in (plain, traced)]
    print(f"tracer cost: {1e2 * (cost[1] - cost[0]):.3f} us per span")


if __name__ == "__main__":
    main()
