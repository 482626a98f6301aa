"""The benchmark's workloads, their four members, and the output checks.

A workload is a tuple of members run in alternation.  Each member builds
its inputs from a seed in ``__init__`` (the set-up the benchmark times as
``setup_s``), then ``run_round`` performs one round of ``ops_per_round``
identical operations.  ``check_round``
verifies the last round's outputs and ``check_final`` runs the oracles that
are too costly to repeat every round; both return a list of problems, empty
when every check holds, and run outside the timed region.

The ``*_problems`` functions take plain outputs, so the self-tests can feed
them deliberately corrupted ones.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import replace

import numpy as np

from geobalance import cli
from geobalance._engine import mode_table
from geobalance.dynamics import SolverConfig, energy_budget, integrate, \
    tendency
from geobalance.experiments import DEFAULT_MU, default_forcing, \
    oscillation_dt
from geobalance.lattice import DomainSpec, SpectralState, check_reality, \
    enforce_reality, random_state, sobolev_norm, truncate
from geobalance.resonance import audit, scan_csv, triad_record
from geobalance.slowmanifold import ManifoldApprox, kappa_delta, \
    remainder_diff, remainder_direct

DOM = DomainSpec()  # the pinned cube of side 2 pi
REALITY_TOL = 1e-12   # reality defect, relative to max(1, ||W||)
BUDGET_TOL = 1e-10    # budget residual, relative to the largest term
ORACLE_TOL = 1e-10    # grid vs direct tendency, relative
REMAINDER_TOL = 1e-12  # two-route remainder, relative to max(1, ||R||)
JET_TOL = 1e-6        # jet derivative vs central difference
TRIAD_TOL = 1e-12     # vectorized vs scalar triad record

BALANCE_EPS = 0.05     # balance-k6: the scan's eps
MANIFOLD_EPS = 0.0125  # manifold-k3: kappa = eps^(-1/4) = 2.99
ORDERS = 3             # manifold-k3: graphs U^0..U^3, remainders n = 0..2
THETA0 = 0.5           # resonance-k4: the audit's cone angle
CSV_SAMPLE = 40        # resonance-k4: CSV rows checked against triad_record


# -- checks on plain outputs ------------------------------------------------

def reality_problems(states, tol=REALITY_TOL):
    out = []
    for st in states:
        defect = check_reality(st)
        if not defect <= tol * max(1.0, sobolev_norm(st)):
            out.append(f"reality defect {defect:.3e} at t = {st.t:.17g}")
    return out


def budget_problems(residuals, terms, tol=BUDGET_TOL):
    """residuals[i] against the largest of the four terms terms[i][:4]."""
    out = []
    for i, (res, tm) in enumerate(zip(residuals, terms)):
        scale = max(abs(x) for x in tm[:4])
        if not abs(res) <= tol * scale:
            out.append(f"budget residual {res:.3e} at record {i} exceeds "
                       f"{tol:g} x largest term {scale:.3e}")
    return out


def final_time_problems(times, nsteps, dt, t0=0.0):
    if len(times) == 0 or times[-1] != t0 + nsteps * dt:
        last = times[-1] if len(times) else None
        return [f"last record at t = {last!r}, expected {nsteps} x dt = "
                f"{t0 + nsteps * dt!r}"]
    return []


def oracle_problems(state, cfg, forcing, tol=ORACLE_TOL):
    """Criterion-3 oracle: grid and direct tendencies of one state.

    Their difference is taken relative to the tendency's nonlinear part,
    the only part the two kernels compute: after a short march from rest
    the forcing and the linear terms dominate the tendency, and relative
    to the whole of it a kernel error of 1e-8 went unseen.
    """
    grid = replace(cfg, conv_method="grid")
    d = tendency(state, state.t, replace(cfg, conv_method="direct"), forcing)
    g = tendency(state, state.t, grid, forcing)
    # tendency(W) = linear(W) + B(W, W) + forcing, so
    # B(W, W) = (tendency(W) + tendency(-W)) / 2 - tendency(0)
    nonlinear = 0.5 * (g + tendency((-1.0) * state, state.t, grid, forcing)) \
        - tendency(state.replace(coeffs={}), state.t, grid, forcing)
    rel = sobolev_norm(d - g) / max(sobolev_norm(nonlinear), 1e-300)
    if not rel <= tol:
        return [f"grid vs direct tendency differ by {rel:.3e} (relative)"]
    return []


def remainder_problems(direct, diff, tol=REMAINDER_TOL):
    out = []
    for n, (a, b) in enumerate(zip(direct, diff)):
        err = sobolev_norm(a - b) / max(1.0, sobolev_norm(a))
        if not err <= tol:
            out.append(f"remainder routes differ by {err:.3e} at n = {n}")
    return out


def graph_problems(graphs, tol=REALITY_TOL):
    out = []
    for n, U in enumerate(graphs):
        if any(key[3] == 0 and v != 0 for key, v in U.items()):
            out.append(f"U^{n} has a slow component")
        out += [f"U^{n}: {p}" for p in reality_problems([U], tol)]
    return out


def jet_problems(approx, state, direction, h=1e-6, tol=JET_TOL):
    _, (du,) = approx.jet(state, [direction])
    fd = (1.0 / (2 * h)) * (approx(state + h * direction)
                            - approx(state + (-h) * direction))
    err = sobolev_norm(du - fd) / max(1.0, sobolev_norm(du))
    if not err <= tol:
        return [f"jet derivative differs from central difference by "
                f"{err:.3e}"]
    return []


def snapshot_problems(path, expected=None):
    """Snapshot must parse, rewrite to the same bytes and, when given,
    hold exactly the expected coefficients."""
    try:
        st = cli.read_snapshot(path)
    except (ValueError, OSError) as exc:  # SnapshotError is a ValueError
        return [f"snapshot {os.path.basename(path)} unreadable: {exc}"]
    copy = path + ".reread"
    cli.write_snapshot(st, copy)
    with open(path, "rb") as a, open(copy, "rb") as b:
        same = a.read() == b.read()
    os.remove(copy)
    out = [] if same else ["snapshot does not rewrite to the same bytes"]
    if expected is not None and (
            st.t != expected.t or dict(st.items()) != dict(expected.items())):
        out.append("snapshot differs from the recomputed final state")
    return out


def count_closing_triads(kmax):
    """Fast-fast-slow triads on the 2 pi cube, counted with integers.

    Pairs (j, k) with j3 != 0, k3 != 0 and |j|, |k|, |j + k| <= kmax,
    j + k != 0, times the four fast branch pairs (r, s).
    """
    n = int(math.floor(kmax))
    g = np.arange(-n, n + 1)
    lat = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    r2 = kmax * kmax
    fast = lat[((lat ** 2).sum(axis=1) <= r2) & (lat[:, 2] != 0)]
    total = 0
    for j in fast:
        l2 = ((j + fast) ** 2).sum(axis=1)
        total += int(((l2 <= r2) & (l2 > 0)).sum())
    return 4 * total


def triad_count_problems(counts, expected):
    """Each of counts ({label: value}) must equal the independent count."""
    return [f"{label} = {got}, independent count {expected}"
            for label, got in counts.items() if got != expected]


def close(a, b, tol=TRIAD_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def csv_sample_problems(rows, theta0, tol=TRIAD_TOL):
    """Rows of the scan CSV (lists of fields) against the scalar path."""
    out = []
    for f in rows:
        j = tuple(int(x) for x in f[0:3])
        k = tuple(int(x) for x in f[4:7])
        rec = triad_record(DOM, j, int(f[3]), k, int(f[7]), theta0)
        got = [float(x) for x in f[12:16]]
        want = [rec.omega_sum, abs(rec.coeff_sum), rec.bound, rec.ratio]
        if f[11] != rec.case or not all(close(a, b, tol)
                                        for a, b in zip(got, want)):
            out.append(f"CSV row {','.join(f)} disagrees with triad_record "
                       f"({rec.case}, {want})")
    return out


def read_csv_rows(path):
    """Data rows of a '#'-commented CSV with one header line."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def read_trajectory(path):
    header = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            if ln.startswith("#"):
                key, _, val = ln[1:].partition("=")
                header[key.strip()] = val.strip()
    rows = read_csv_rows(path)
    return header, np.array([[float(x) for x in r] for r in rows])


# -- workloads ---------------------------------------------------------------

class BalanceK6:
    """One balance-scan point in miniature: an IF-RK4 march at kmax 6 from
    rest with kept states, then the scan's per-sample fast-part norm."""

    name = "balance-k6"

    def __init__(self, seed, outdir, kmax=6.0, steps=10, record_every=10):
        self.forcing = default_forcing(DOM, kmax, seed=seed)
        dt = oscillation_dt(DOM, kmax, BALANCE_EPS)
        self.cfg = SolverConfig(eps=BALANCE_EPS, mu=DEFAULT_MU, dt=dt,
                                t_end=steps * dt, kmax=kmax,
                                record_every=record_every)
        self.ops_per_round = steps
        self.rest = SpectralState(DOM, kmax, {})
        # one step triggers the lazy grid set-up
        integrate(self.rest, replace(self.cfg, t_end=dt, record_every=1),
                  self.forcing)

    def run_round(self):
        rec, final = integrate(self.rest, self.cfg, self.forcing,
                               keep_states=True)
        fast = [sobolev_norm(st.branch((1, -1))) for st in rec.states]
        self.last = rec, final, fast

    def check_round(self):
        rec, final, fast = self.last
        terms = [energy_budget(st, self.forcing, st.t, self.cfg)
                 for st in rec.states]
        out = reality_problems(rec.states + [final])
        out += budget_problems(rec.budget_residual, terms)
        out += final_time_problems(rec.times, self.ops_per_round, self.cfg.dt)
        if not all(math.isfinite(x) for x in fast):
            out.append("non-finite fast-part norm")
        return out

    def check_final(self):
        return oracle_problems(self.last[1], self.cfg, self.forcing)


class SimulateK4:
    """`geobalance simulate` through cli.main on the pinned default config
    at kmax 4: 2 steps per run, the budget recorded at every step."""

    name = "simulate-k4"

    def __init__(self, seed, outdir, kmax=4, t_end=0.04):
        # configs stay beside, not in, the directory the CLI writes to
        self.configs, self.seed = outdir, seed
        self.outdir = os.path.join(outdir, "artifacts")
        os.makedirs(self.outdir, exist_ok=True)
        with open(cli.default_config_path(), encoding="utf-8") as fh:
            self.base = [ln for ln in fh.read().splitlines()
                         if not ln.startswith(("kmax", "t_end"))]
        self.base.append(f"kmax = {kmax}")
        self.rc = cli.parse_config("\n".join(self.base))
        self.dt = oscillation_dt(DOM, kmax, self.rc.epsilon,
                                 self.rc.oversample)
        self.nsteps = self.ops_per_round = max(1, math.ceil(t_end / self.dt))
        self.argv = self._argv("bench.cfg", t_end)
        # a one-step run builds the tables and the lazy triad table
        self._main(self._argv("warmup.cfg", self.dt))

    def _argv(self, name, t_end):
        path = os.path.join(self.configs, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.base + [f"t_end = {t_end!r}"]) + "\n")
        return ["simulate", "--config", path, "--out", self.outdir,
                "--seed", str(self.seed)]

    @staticmethod
    def _main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"geobalance {argv[0]} exited {status}")

    def run_round(self):
        self._main(self.argv)

    def _paths(self):
        return (os.path.join(self.outdir, "trajectory.csv"),
                os.path.join(self.outdir, "final_state.snap"))

    def check_round(self):
        traj, snap = self._paths()
        header, rows = read_trajectory(traj)
        out = final_time_problems(rows[:, 0], self.nsteps,
                                  float(header["dt"]))
        out += snapshot_problems(snap)
        if not out:
            out += reality_problems([cli.read_snapshot(snap)])
        return out

    def check_final(self):
        """Recompute the last run in-process: the snapshot must match it
        bit for bit, and its kept states give the budget terms for the
        CSV's residual column."""
        traj, snap = self._paths()
        rc = self.rc
        cfg = SolverConfig(eps=rc.epsilon, mu=rc.mu, dt=self.dt,
                           t_end=self.nsteps * self.dt, kmax=rc.kmax,
                           record_every=max(1, self.nsteps // 500))
        forcing = default_forcing(DOM, rc.kmax, seed=self.seed)
        rec, final = integrate(SpectralState(DOM, rc.kmax, {}), cfg, forcing,
                               keep_states=True)
        _, rows = read_trajectory(traj)
        out = snapshot_problems(snap, expected=final)
        if len(rows) != len(rec.times) or \
                not np.array_equal(rows[:, 5], rec.budget_residual):
            out.append("trajectory.csv residuals differ from the recomputed "
                       "run")
        terms = [energy_budget(st, forcing, st.t, cfg) for st in rec.states]
        out += budget_problems(rows[:, 5], terms)
        return out + oracle_problems(final, cfg, forcing)


class ManifoldK3:
    """Slow-manifold post-processing of one seeded kmax-6 state at
    eps = 0.0125: graphs U^0..U^3 and remainders by both routes."""

    name = "manifold-k3"

    def __init__(self, seed, outdir, kmax=6.0):
        forcing = default_forcing(DOM, kmax, seed=seed)
        self.kmax = kmax
        self.kappa, _, _ = kappa_delta(MANIFOLD_EPS, kmax)
        self.approx = [ManifoldApprox(DOM, self.kappa, MANIFOLD_EPS,
                                      DEFAULT_MU, forcing, order=n,
                                      n_cap=ORDERS + 1, eta=2.0)
                       for n in range(ORDERS + 1)]
        rng = np.random.default_rng(seed)
        self.state = self._sample(rng)
        self.direction = truncate(enforce_reality(random_state(
            DOM, kmax, rng, slow_only=True)), self.kappa)[0]
        # the graphs, then the remainders by both routes
        self.ops_per_round = 3 * ORDERS + 1
        # first evaluation builds the strict table and its triad table
        self.approx[1](truncate(self.state, self.kappa)[0])

    def _sample(self, rng):
        """A seeded state whose low slow part has unit H^2 norm."""
        st = random_state(DOM, self.kmax, rng)
        lo = truncate(st, self.kappa)[0].branch(0)
        return (1.0 / sobolev_norm(lo, 2.0)) * st

    def run_round(self):
        st, ap = self.state, self.approx
        lo, _ = truncate(st, self.kappa)
        graphs = [a(lo) for a in ap]
        fast = st.branch((1, -1))
        resid = [sobolev_norm(fast - SpectralState(
            DOM, self.kmax, dict(u.items()), st.frame, st.t)) for u in graphs]
        direct = [remainder_direct(ap[n], lo) for n in range(len(ap) - 1)]
        diff = [remainder_diff(ap[n], ap[n + 1], lo)
                for n in range(len(ap) - 1)]
        self.last = graphs, resid, direct, diff

    def check_round(self):
        graphs, resid, direct, diff = self.last
        out = graph_problems(graphs) + remainder_problems(direct, diff)
        if not all(math.isfinite(x) for x in resid):
            out.append("non-finite manifold residual")
        return out

    def check_final(self):
        lo = truncate(self.state, self.kappa)[0]
        return jet_problems(self.approx[2], lo, self.direction)


class ResonanceK4:
    """The exhaustive triad audit at kmax 4 (vectorized per j-row) plus the
    streaming CSV scan (one Python record per triad) at kmax 2.5: two ops."""

    name = "resonance-k4"
    ops_per_round = 2

    def __init__(self, seed, outdir, kmax=4.0, scan_kmax=2.5):
        self.kmax, self.scan_kmax = kmax, scan_kmax
        self.path = os.path.join(outdir, "resonance_scan.csv")
        self.rng = np.random.default_rng(seed)
        self.expected = None
        mode_table(DOM, kmax)
        mode_table(DOM, scan_kmax)

    def run_round(self):
        rep = audit(DOM, self.kmax, THETA0)
        rows = scan_csv(DOM, self.scan_kmax, self.path, THETA0)
        self.last = rep, rows

    def check_round(self):
        rep, rows = self.last
        if self.expected is None:  # made once, outside the set-up
            self.expected = (count_closing_triads(self.kmax),
                             count_closing_triads(self.scan_kmax))
        expected = self.expected
        out = []
        if rep.n_bound_violations:
            out.append(f"{rep.n_bound_violations} case-wise bound violations")
        if not rep.max_resonant_residual <= TRIAD_TOL:
            out.append(f"exact-resonance residual "
                       f"{rep.max_resonant_residual:.3e}")
        if sum(rep.case_counts.values()) != rep.n_triads:
            out.append("case counts do not sum to n_triads")
        csv = read_csv_rows(self.path)
        out += triad_count_problems({"audit n_triads": rep.n_triads},
                                    expected[0])
        out += triad_count_problems({"scan_csv rows": rows,
                                     "CSV data rows": len(csv)}, expected[1])
        best = triad_record(DOM, *rep.argmax, THETA0).ratio
        if not close(best, rep.max_ratio):
            out.append(f"arg-max ratio {rep.max_ratio!r} vs scalar {best!r}")
        pick = self.rng.choice(len(csv), size=min(CSV_SAMPLE, len(csv)),
                               replace=False)
        return out + csv_sample_problems([csv[i] for i in pick], THETA0)

    def check_final(self):
        return []


# members alternate within a run; each workload covers different layers
WORKLOADS = {
    "march": (BalanceK6, SimulateK4),
    "analysis": (ManifoldK3, ResonanceK4),
}
