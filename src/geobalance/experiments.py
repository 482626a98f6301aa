"""Desk-scale experiments: toy relaxation model, fast-energy scaling scan,
manifold-residual scan, and the spectral-tail decay check.

Each scan integrates the truncated system from rest under a pinned steady
forcing, discards a transient, measures over a window of equal length, and
fits a log-log slope across the eps grid.  Grid points are independent
deterministic runs; reports carry per-point convergence flags and only
converged points enter the fit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ._engine import mode_table
from .dynamics import ForcingSpec, SolverConfig, _whole_steps, integrate
from .lattice import (DomainSpec, SpectralState, gevrey_norm,
                      random_state, sobolev_norm, truncate)
from .slowmanifold import ManifoldApprox, kappa_delta

__all__ = [
    "ScanReport",
    "ToyTrajectory",
    "toy_model",
    "default_domain",
    "default_forcing",
    "oscillation_dt",
    "balance_scan",
    "manifold_scan",
    "gevrey_tail_check",
]


# pinned defaults: cube box, cutoff 6, moderate damping, forcing on |k|<=2
DEFAULT_KMAX = 6.0
DEFAULT_MU = 0.5
DEFAULT_SEED = 20260501
DEFAULT_TRANSIENT = 10.0 / (DEFAULT_MU * 1.0)
DEFAULT_OVERSAMPLE = 8


def default_domain() -> DomainSpec:
    return DomainSpec()


@dataclass
class ScanReport:
    """Grid of measurements with a log-log fit over converged points."""

    kind: str
    eps_values: list
    n_values: list = None
    columns: tuple = ()
    rows: list = field(default_factory=list)  # dicts keyed by columns
    converged: list = field(default_factory=list)
    slope: float = math.nan
    intercept: float = math.nan
    fit_residual: float = math.nan
    passed: dict = field(default_factory=dict)
    config_echo: dict = field(default_factory=dict)

    def fit(self, xcol: str, ycol: str):
        """Least-squares slope of log y vs log x over converged rows."""
        pts = [(r[xcol], r[ycol]) for r, ok in zip(self.rows, self.converged)
               if ok and r[ycol] > 0]
        if len(pts) < 2:
            return
        _fit_line(self, np.log([p[0] for p in pts]),
                  np.log([p[1] for p in pts]))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# scan = {self.kind}\n")
            for k in sorted(self.config_echo):
                fh.write(f"# {k} = {self.config_echo[k]}\n")
            fh.write(",".join(self.columns) + ",converged\n")
            for r, ok in zip(self.rows, self.converged):
                vals = []
                for c in self.columns:
                    v = r[c]
                    vals.append(f"{v:.17g}" if isinstance(v, float)
                                else str(v))
                fh.write(",".join(vals) + f",{int(ok)}\n")
            fh.write(f"# slope = {self.slope:.17g}\n")
            fh.write(f"# intercept = {self.intercept:.17g}\n")
            fh.write(f"# fit_residual = {self.fit_residual:.17g}\n")
            for k in sorted(self.passed):
                fh.write(f"# pass_{k} = {int(self.passed[k])}\n")


def _fit_line(report, x, y):
    """Least-squares line y = slope x + intercept through the points
    (x, y), with its rms residual, into ``report``."""
    A = np.vstack([x, np.ones_like(x)]).T
    sol, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    report.slope, report.intercept = float(sol[0]), float(sol[1])
    report.fit_residual = float(np.sqrt(res[0] / len(x))) if len(res) \
        else 0.0


# -- toy model -------------------------------------------------------------

@dataclass
class ToyTrajectory:
    times: np.ndarray
    x: np.ndarray
    slow_point: complex  # U = eps f / (eps mu + i)
    dist: np.ndarray     # |x(t) - U|

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# slow_point = {self.slow_point.real:.17g} "
                     f"{self.slow_point.imag:.17g}\n")
            fh.write("t,re_x,im_x,dist\n")
            for t, x, d in zip(self.times, self.x, self.dist):
                fh.write(f"{t:.17g},{x.real:.17g},{x.imag:.17g},{d:.17g}\n")


def toy_model(eps: float, mu: float, f: complex, T: float, dt: float,
              x0: complex = 0.0) -> ToyTrajectory:
    """dx/dt + (i/eps) x + mu x = f by the exact exponential formula.

    x_{n+1} = e^{-lam dt} x_n + f (1 - e^{-lam dt}) / lam with
    lam = i/eps + mu; the fixed point is U = eps f / (eps mu + i).
    """
    for name, v in (("eps", eps), ("mu", mu), ("dt", dt), ("f", f),
                    ("x0", x0)):
        if not cmath.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if not (eps > 0 and mu > 0 and dt > 0):
        raise ValueError("eps, mu, dt must all be > 0")
    nstep = _whole_steps(T, dt) if T >= 0 else None
    if nstep is None:
        raise ValueError(f"T = {T!r} must be a whole number of steps "
                         f"dt = {dt!r}, >= 0")
    lam = 1j / eps + mu
    U = eps * f / (eps * mu + 1j)
    decay = np.exp(-lam * dt)
    gain = f * (1.0 - decay) / lam
    x = np.empty(nstep + 1, dtype=complex)
    x[0] = x0
    for n in range(nstep):
        x[n + 1] = decay * x[n] + gain
    times = dt * np.arange(nstep + 1)
    return ToyTrajectory(times, x, U, np.abs(x - U))


# -- pinned forcing --------------------------------------------------------

def default_forcing(domain: DomainSpec, kmax: float = DEFAULT_KMAX,
                    support: float = 2.0, seed: int = DEFAULT_SEED,
                    slow_norm: float = 1.0, fast_norm: float = 1.0
                    ) -> ForcingSpec:
    """Seeded steady forcing on |k| <= support, reality-constrained, with
    slow and fast parts separately normalized in H^2."""
    st = SpectralState(domain, kmax, random_state(domain, support, seed),
                       frame="lab")

    def normed(part, target):
        nrm = sobolev_norm(part, 2.0)
        return part * (target / nrm) if nrm > 0 else part

    return ForcingSpec(normed(st.branch(0), slow_norm)
                       + normed(st.branch((1, -1)), fast_norm))


def oscillation_dt(domain: DomainSpec, kmax: float, eps: float,
                   oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """Time step resolving the fastest retained phase 2 pi eps / omega."""
    if not oversample >= 1:
        raise ValueError(f"oversample must be >= 1, got {oversample!r}")
    table = mode_table(domain, kmax)
    omega_max = float(np.abs(table.omega).max())
    return 2.0 * math.pi * eps / (oversample * max(omega_max, 1.0))


def _window_sups(vals):
    """Sup over the window's norms, the sups of its two halves, and a
    two-half trend check."""
    half = len(vals) // 2
    # the samples are norms, >= 0, so an empty half reads 0
    s1, s2 = (float(v.max(initial=0.0)) for v in (vals[:half], vals[half:]))
    converged = abs(s2 - s1) <= 0.25 * max(s1, s2, 1e-300)
    return max(s1, s2), s1, s2, converged


def _run_to_window(domain, kmax, eps, mu, forcing, transient, window,
                   oversample, keep_states=False):
    """Integrate from rest; return the trajectory record and the index of
    its first sample in the window, which must hold one."""
    if not (math.isfinite(window) and window > 0):
        raise ValueError(f"window must be finite and > 0, got {window!r}")
    if not (math.isfinite(transient) and transient >= 0):
        raise ValueError(f"transient must be finite and >= 0, "
                         f"got {transient!r}")
    dt = oscillation_dt(domain, kmax, eps, oversample)
    nt = int(math.ceil(transient / dt))
    nw = int(math.ceil(window / dt))
    total = nt + nw
    cfg = SolverConfig(eps=eps, mu=mu, dt=dt, t_end=total * dt,
                       kmax=kmax, record_every=max(1, nw // 200),
                       conv_method="auto")
    state = SpectralState(domain, kmax, {})
    rec, _ = integrate(state, cfg, forcing, keep_states=keep_states)
    return rec, int(np.searchsorted(rec.times, nt * dt - 1e-12))


def balance_scan(eps_values, domain=None, kmax=DEFAULT_KMAX, mu=DEFAULT_MU,
                 forcing=None, transient=DEFAULT_TRANSIENT, window=None,
                 oversample=DEFAULT_OVERSAMPLE) -> ScanReport:
    """Sup of the fast energy norm over a post-transient window, per eps,
    with a log-log fit of sup ||W_fast|| against eps."""
    domain = domain or default_domain()
    forcing = forcing or default_forcing(domain, kmax)
    window = window if window is not None else transient
    report = ScanReport(
        kind="balance-scan", eps_values=list(eps_values),
        columns=("eps", "sup_fast", "sup_first_half", "sup_second_half",
                 "n_samples"),
        config_echo=dict(kmax=kmax, mu=mu, transient=transient,
                         window=window, oversample=oversample))
    for eps in eps_values:
        rec, i0 = _run_to_window(domain, kmax, eps, mu, forcing,
                                 transient, window, oversample)
        fast = rec.e_fast[i0:]
        sup, s1, s2, converged = _window_sups(fast)
        report.rows.append(dict(eps=float(eps), sup_fast=sup,
                                sup_first_half=s1, sup_second_half=s2,
                                n_samples=len(fast)))
        report.converged.append(converged)
    report.fit("eps", "sup_fast")
    report.passed["slope_ge_0.45"] = report.slope >= 0.45
    return report


def manifold_scan(eps_values, n_values, domain=None, kmax=DEFAULT_KMAX,
                  mu=DEFAULT_MU, forcing=None, transient=DEFAULT_TRANSIENT,
                  window=None, oversample=DEFAULT_OVERSAMPLE) -> ScanReport:
    """Time-averaged ||W_fast(t) - U^n(W_slow(t))|| per (eps, n).

    Requires steady forcing.  The n = 0 column is the plain fast energy;
    the high-mode tail ||W_fast above the truncation radius|| is reported
    as the saturation floor.
    """
    domain = domain or default_domain()
    forcing = forcing or default_forcing(domain, kmax)
    if not forcing.steady:
        raise ValueError("manifold scan requires steady forcing")
    window = window if window is not None else transient
    full = mode_table(domain, kmax)
    report = ScanReport(
        kind="manifold-scan", eps_values=list(eps_values),
        n_values=list(n_values),
        columns=("eps", "n", "residual", "fast_norm", "tail", "kappa"),
        config_echo=dict(kmax=kmax, mu=mu, transient=transient,
                         window=window, oversample=oversample))
    for eps in eps_values:
        rec, i0 = _run_to_window(domain, kmax, eps, mu, forcing, transient,
                                 window, oversample, keep_states=True)
        states, fast_norms = rec.states[i0:], rec.e_fast[i0:]
        kappa, _, _ = kappa_delta(eps, kmax)
        *_, converged = _window_sups(fast_norms)
        tails = [sobolev_norm(truncate(st.branch((1, -1)), kappa)[1])
                 for st in states]
        approxes = [ManifoldApprox(domain, kappa, eps, mu, forcing, order=n,
                                   n_cap=max(n_values) + 1)
                    for n in n_values]  # each checks its order
        res = [[] for _ in n_values]
        for st in states if approxes else ():
            lo, _ = truncate(st, kappa)
            fast = st.branch((1, -1))
            # every order at one sample shares one context and its products
            for u, out in zip(approxes[0]._rows(lo, n_values), res):
                U = full.dense(approxes[0].table.state(u))  # on st's rows
                out.append(sobolev_norm(fast - st._with(U)))
        for n, r in zip(n_values, res):
            report.rows.append(dict(
                eps=float(eps), n=int(n),
                residual=float(np.mean(r)),
                fast_norm=float(np.mean(fast_norms)),
                tail=float(np.mean(tails)), kappa=float(kappa)))
            report.converged.append(converged)
    by_eps = {}
    for r, ok in zip(report.rows, report.converged):
        by_eps.setdefault(r["eps"], []).append((r["n"], r["residual"], ok))
    halves, monotone = [], []
    for eps, entries in by_eps.items():
        entries.sort()
        res = [x[1] for x in entries]
        if len(res) >= 2 and entries[0][0] == 0:
            halves.append(res[1] <= 0.5 * res[0])
        monotone.append(all(b <= a * (1 + 1e-9)
                            for a, b in zip(res, res[1:])))
    report.passed["n1_half_of_n0"] = all(halves) if halves else False
    report.passed["monotone_in_n"] = all(monotone)
    return report


def gevrey_tail_check(sigma: float, kappa_values, domain=None,
                      kmax: float = 8.0, s: float = 0.0,
                      support: str = "ray") -> ScanReport:
    """Tail norms of a synthesized e^{-sigma |k|} envelope against the
    bound C kappa^s e^{-sigma kappa} ||W||_{G^sigma}.

    support "ray" places one mode per integer shell (k = (l, 0, 0)), so
    the log tail decays at the clean rate -sigma; "full" populates every
    lattice mode, where shell multiplicity adds a ~2 log|k| correction to
    the exponent (the bound still holds, the slope does not isolate
    -sigma).
    """
    domain = domain or default_domain()
    if support not in ("ray", "full"):
        raise ValueError(f"support must be 'ray' or 'full', got {support!r}")
    index = SpectralState(domain, kmax).index
    l, mask = index.ints, np.zeros((3, index.nk), dtype=bool)
    if support == "ray":  # l = (1..floor(kmax), 0, 0)
        mask[0] = (l[:, 0] >= 1) & (l[:, 0] <= kmax) & ~l[:, 1:].any(axis=1)
    else:
        mask[0], mask[1:] = True, l[:, 2] != 0
    state = SpectralState._of(
        index, np.where(mask, np.exp(-sigma * index.kabs), 0.0), mask)
    gnorm = gevrey_norm(state, sigma)
    report = ScanReport(
        kind="gevrey-tail", eps_values=list(kappa_values),
        columns=("kappa", "tail", "envelope", "empirical_C"),
        config_echo=dict(sigma=sigma, kmax=kmax, s=s))
    for kap in kappa_values:
        _, hi = truncate(state, kap)
        tail = sobolev_norm(hi, s)
        env = (kap ** s) * math.exp(-sigma * kap) * gnorm
        report.rows.append(dict(kappa=float(kap), tail=tail, envelope=env,
                                empirical_C=tail / env if env else math.inf))
        report.converged.append(True)
    # fit() works in log x; for the tail the natural fit is log tail vs
    # kappa itself, so it is done linearly here
    pts = [(r["kappa"], r["tail"]) for r in report.rows if r["tail"] > 0]
    if len(pts) >= 2:
        _fit_line(report, np.array([p[0] for p in pts]),
                  np.log([p[1] for p in pts]))
    report.passed["slope_within_10pct"] = \
        abs(report.slope + sigma) <= 0.1 * sigma
    report.passed["bounded_C"] = all(
        r["empirical_C"] < math.inf for r in report.rows)
    return report
