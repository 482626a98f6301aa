"""Galerkin ODE system in the eigenbasis and its time integration.

The rotated-frame evolution, with wave phases factored out of the fast
coefficients, reads

    dw/dt = -P(t)^-1 [ N(P(t) w) - f(t) ] - mu |k|^2 w,

where P(t) = exp(-i omega t / eps) is the diagonal phase, N the advective
convolution and f the (lab-frame) forcing.  Diffusion is handled exactly
by an integrating factor, the phases exactly at every Runge-Kutta stage,
so the step size only needs to resolve the nonlinear timescale modulated
by the oscillating phases, never the 1/eps stiffness of the wave operator
itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._engine import CONV_METHODS, mode_table
from .lattice import (DomainSpec, SpectralState, _dot, check_reality,
                      sobolev_norm)

__all__ = [
    "ForcingSpec",
    "SolverConfig",
    "TrajectoryRecord",
    "DivergenceError",
    "apply_A",
    "tendency",
    "integrate",
    "energy_budget",
    "reconstruct_fields",
]


class DivergenceError(RuntimeError):
    """Raised when the integration produces non-finite coefficients."""


@dataclass(frozen=True)
class ForcingSpec:
    """Forcing coefficients, steady or separably time-modulated.

    ``coeffs`` holds lab-frame coefficients (no wave-phase factor); the
    optional ``modulation`` is a scalar function of time multiplying all
    of them (e.g. a sinusoid), None meaning steady.  The coefficients must
    satisfy the same reality constraints as states; fast components at
    k3 = 0 are structurally impossible.
    """

    coeffs: SpectralState
    modulation: object = None  # callable t -> scalar, or None

    def __post_init__(self):
        viol = check_reality(self.coeffs)
        scale = max(1.0, float(np.abs(self.coeffs.array).max(initial=0.0)))
        if viol > 1e-10 * scale:
            raise ValueError(
                f"forcing violates reality constraints (defect {viol:g})")

    @property
    def steady(self) -> bool:
        return self.modulation is None

    @property
    def ageostrophic(self) -> bool:
        """True when any fast-branch component is present."""
        return bool(self.coeffs.array[1:].any())

    def amplitude(self, t: float):
        return 1.0 if self.modulation is None else self.modulation(t)

    @classmethod
    def zero(cls, domain: DomainSpec, kmax: float) -> "ForcingSpec":
        return cls(SpectralState(domain, kmax, {}, frame="lab"))


@dataclass(frozen=True)
class SolverConfig:
    eps: float
    mu: float
    dt: float
    t_end: float
    kmax: float
    record_every: int = 1
    conv_method: str = "auto"  # one of _engine.CONV_METHODS

    def __post_init__(self):
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if not (self.mu >= 0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.kmax > 0:
            raise ValueError(f"kmax must be > 0, got {self.kmax}")
        if self.conv_method not in CONV_METHODS:
            raise ValueError(f"unknown convolution method "
                             f"{self.conv_method!r}; choose from "
                             f"{', '.join(CONV_METHODS)}")
        n = self.t_end / self.dt
        if not (n >= 0 and _whole_steps(self.t_end, self.dt) is not None):
            raise ValueError(f"t_end = {self.t_end!r} must be a whole number "
                             f"of steps dt = {self.dt!r}, >= 0 "
                             f"(t_end/dt = {n!r})")
        if not (self.record_every >= 1 and self.record_every % 1 == 0):
            raise ValueError(f"record_every must be a whole number >= 1, "
                             f"got {self.record_every!r}")
        if self.record_every * self.dt > self.t_end * (1 + 1e-9) > 0:
            raise ValueError("record cadence exceeds t_end")


@dataclass
class TrajectoryRecord:
    """Sampled diagnostics along a trajectory.  All norms are L^2-type
    coefficient norms (no |M| factor): E_* columns are ||.||_{L^2}."""

    times: np.ndarray
    e_total: np.ndarray  # ||W||
    e_fast: np.ndarray   # ||We||
    e_slow: np.ndarray   # ||W0||
    h1: np.ndarray       # ||W||_{H^1}
    budget_residual: np.ndarray
    states: list = None  # sampled SpectralStates when requested

    def to_csv(self, path, header_lines=()) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("t,E_total,E_fast,E_slow,H1,budget_residual\n")
            for i in range(len(self.times)):
                fh.write(f"{self.times[i]:.17g},{self.e_total[i]:.17g},"
                         f"{self.e_fast[i]:.17g},{self.e_slow[i]:.17g},"
                         f"{self.h1[i]:.17g},{self.budget_residual[i]:.17g}\n")


def _whole_steps(t_end: float, dt: float):
    """t_end / dt if finite and whole to 1e-9 relative, else None."""
    n = t_end / dt
    whole = math.isfinite(n) and abs(n - round(n)) <= 1e-9 * max(1.0, n)
    return round(n) if whole else None


def apply_A(state: SpectralState, mu: float) -> SpectralState:
    """Diagonal dissipation: every coefficient times mu |k|^2."""
    return state._with(mu * state.index.kabs ** 2 * state.array, state.mask)


def _dense_forcing(table, forcing):
    """The lab-frame forcing coefficients on the rows of ``table``; a
    forcing on another box is refused, one of another kmax embedded."""
    if forcing is None:
        return np.zeros((3, table.nk), dtype=complex)
    fd, td = forcing.coeffs.domain, table.domain
    if fd != td:
        raise ValueError(f"forcing on the box {fd.L1:g} x {fd.L2:g} x "
                         f"{fd.L3:g} does not fit the state's box "
                         f"{td.L1:g} x {td.L2:g} x {td.L3:g}")
    return forcing.coeffs._on(table.index)


def _forcing_at(fdense, forcing, t):
    """The lab-frame forcing coefficients at time t."""
    return fdense if forcing is None or forcing.modulation is None \
        else fdense * forcing.amplitude(t)


def _square(w, E, conv):
    """The lab-frame product N = B(c, c) of c = E * w, at the time of
    phase E = table.phase(t, eps)."""
    c = E * w
    return conv(c, c)


def _rhs(N, E, f):
    """Rotated-frame tendency without the diffusion term (handled by IF),
    from the product N = _square(w, E, conv) and the forcing f at the
    time of E."""
    return (f - N) / E


def _table(state: SpectralState, cfg: SolverConfig):
    """The mode table of ``state``'s lattice, which ``cfg.kmax`` must name."""
    if cfg.kmax != state.kmax:
        raise ValueError(f"SolverConfig kmax = {cfg.kmax!r} differs from the "
                         f"state's kmax = {state.kmax!r}")
    return mode_table(state.domain, state.kmax)


def tendency(state: SpectralState, t: float, cfg: SolverConfig,
             forcing: ForcingSpec | None = None) -> SpectralState:
    """Full rotated-frame tendency dw/dt, including dissipation."""
    if state.frame != "rotated":
        raise ValueError("tendency expects a rotated-frame state")
    table = _table(state, cfg)
    w = state.array
    fdense = _dense_forcing(table, forcing)
    conv = table.conv(cfg.conv_method)
    E = table.phase(t, cfg.eps)
    out = (_rhs(_square(w, E, conv), E, _forcing_at(fdense, forcing, t))
           - cfg.mu * table.kabs ** 2 * w)
    return SpectralState._of(table.index, out, frame=state.frame, t=t)


def integrate(state0: SpectralState, cfg: SolverConfig,
              forcing: ForcingSpec | None = None,
              keep_states: bool = False):
    """Integrating-factor RK4 march; returns (TrajectoryRecord, final state).

    Diffusion is integrated exactly (for B = f = 0 the decay e^{-mu|k|^2 t}
    is reproduced to roundoff) and the classical four-stage scheme acts on
    the exponentially rescaled variable, giving fourth-order accuracy in
    the nonlinear terms.  Deterministic for fixed config.
    """
    if state0.frame != "rotated":
        raise ValueError("integrate expects a rotated-frame initial state")
    table = _table(state0, cfg)
    w = state0.array
    fdense = _dense_forcing(table, forcing)
    conv = table.conv(cfg.conv_method)
    h = cfg.dt
    D = cfg.mu * table.kabs ** 2
    ea = np.exp(-0.5 * h * D)
    eb = ea * ea
    nsteps = int(round(cfg.t_end / h))
    t0 = state0.t

    times, et, ef, es, h1, br = [], [], [], [], [], []
    states = [] if keep_states else None

    def record(t, w, E, f):
        """Append the diagnostics of w; returns its product N, which the
        next step's first stage reuses."""
        st = SpectralState._of(table.index, w, t=t)
        if keep_states:  # w is never written in place
            states.append(st)
        times.append(t)
        et.append(sobolev_norm(st))
        ef.append(sobolev_norm(st.branch((1, -1))))
        es.append(sobolev_norm(st.branch(0)))
        h1.append(sobolev_norm(st, 1.0))
        N = _square(w, E, conv)
        br.append(_budget_dense(table, w, E, cfg, f, conv, N)[-1])
        return N

    def at(t):  # phase and forcing, once per distinct stage time
        return table.phase(t, cfg.eps), _forcing_at(fdense, forcing, t)

    # t + h/2 serves stages 2 and 3; the end-of-step time serves stage 4,
    # the record and the next step's stage 1, which takes the record's
    # product N of the same w and E
    t = t0
    E, f = at(t)
    N = record(t, w, E, f)
    for n in range(nsteps):
        t1 = t0 + (n + 1) * h
        (Em, fm), (E1, f1) = at(t + 0.5 * h), at(t1)
        # an overflow in a stage leaves w non-finite, which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = _rhs(_square(w, E, conv) if N is None else N, E, f)
            w1 = ea * (w + 0.5 * h * k1)
            k2 = _rhs(_square(w1, Em, conv), Em, fm)
            w2 = ea * w + 0.5 * h * k2
            k3 = _rhs(_square(w2, Em, conv), Em, fm)
            w3 = eb * w + h * ea * k3
            k4 = _rhs(_square(w3, E1, conv), E1, f1)
            w = eb * w + (h / 6.0) * (eb * k1 + 2.0 * ea * (k2 + k3) + k4)
        if not np.isfinite(w).all():
            raise DivergenceError(
                f"non-finite coefficients at step {n + 1} (t = {t1:g})")
        N = None
        if (n + 1) % cfg.record_every == 0 or n + 1 == nsteps:
            N = record(t1, w, E1, f1)
        t, E, f = t1, E1, f1

    rec = TrajectoryRecord(times=np.array(times), e_total=np.array(et),
                           e_fast=np.array(ef), e_slow=np.array(es),
                           h1=np.array(h1), budget_residual=np.array(br),
                           states=states)
    return rec, SpectralState._of(table.index, w, t=t0 + nsteps * h)


def _budget_dense(table, w, E, cfg, f, conv, N):
    """Fast-branch energy budget terms from a rotated dense state, at the
    time of phase E = table.phase(t, eps) and lab-frame forcing f; N is
    the state's product _square(w, E, conv).

    Returns (de_fast, dissipation, transfer, injection, residual), where
    de_fast = (1/2) d|We|^2/dt and the identity

        de_fast + dissipation = transfer + injection

    holds up to roundoff (the residual).  Each term is |M| Re sum x
    conj(c_fast) for some x, reduced as ``pairing`` reduces.
    """
    c = E * w
    c0 = np.where([[True], [False], [False]], c, 0.0)  # the slow part
    cfast = c - c0

    def pair(x):
        return table.domain.volume * _dot(x, cfast)

    Dc = cfg.mu * table.kabs ** 2 * c
    de = pair(-N - Dc + f)  # the lab tendency minus iL/eps
    diss = pair(Dc)
    transfer = -pair(conv(c, c0))  # B(W, W0)
    inject = pair(f)
    residual = de + diss - transfer - inject
    return de, diss, transfer, inject, residual


def energy_budget(state: SpectralState, forcing: ForcingSpec | None,
                  t: float, cfg: SolverConfig):
    """Term-by-term fast-energy budget; see :func:`_budget_dense`."""
    if state.frame != "rotated":
        raise ValueError("energy_budget expects a rotated-frame state")
    table = _table(state, cfg)
    w = state.array
    fdense = _dense_forcing(table, forcing)
    E, conv = table.phase(t, cfg.eps), table.conv(cfg.conv_method)
    return _budget_dense(table, w, E, cfg, _forcing_at(fdense, forcing, t),
                         conv, _square(w, E, conv))


def reconstruct_fields(state: SpectralState, resolution) -> dict:
    """Inverse transform to physical space on a regular grid.

    Returns a dict with complex arrays 'v1', 'v2', 'rho', 'u3', 'delta_p',
    'p_avg' of shape (n1, n2, n3) plus the coordinate vectors 'x', 'y',
    'z'; for reality-constrained states the imaginary parts are roundoff.
    The vertical velocity is recovered from incompressibility,
    u3_k = -(k1 v1 + k2 v2)/k3 for k3 != 0; the pressure deviation from
    hydrostatic balance, delta_p_k = i rho_k / k3; and the depth-averaged
    pressure from the horizontal velocity average,
    p_avg_l = i (l2 v1 - l1 v2)/|l'|^2 on l3 = 0 modes (leading order).
    The z grid is symmetric about 0, so the even/odd symmetries of the
    fields are directly visible on it.
    """
    from .modes import _vectors

    if np.ndim(resolution) == 0:
        dims = (operator.index(resolution),) * 3
    else:
        dims = tuple(int(n) for n in resolution)
    dom = state.domain
    F, rows = _vectors(state)
    F, l = F[rows].T, state.index.ints[rows]
    k1, k2, k3 = state.index.kphys[rows].T
    lmax = np.abs(l).max(axis=0, initial=0).tolist()
    for d in range(3):
        if dims[d] < 2 * lmax[d] + 1:
            raise ValueError(
                f"grid axis {d} has {dims[d]} points, needs >= "
                f"{2 * lmax[d] + 1} to hold the state without aliasing")

    flat = k3 == 0.0  # l3 = 0: no u3 or delta_p, but the depth average
    k3 = np.where(flat, 1.0, k3)
    kp2 = np.where(flat, k1 ** 2 + k2 ** 2, 1.0)
    coef = dict(v1=F[0], v2=F[1], rho=F[2],
                u3=np.where(flat, 0.0, -(k1 * F[0] + k2 * F[1]) / k3),
                delta_p=np.where(flat, 0.0, 1j * F[2] / k3),
                p_avg=np.where(flat, 1j * (k2 * F[0] - k1 * F[1]) / kp2, 0.0))
    # z offset: grid starts at -L3/2, so each mode picks up (-1)^l3
    ph = np.where(l[:, 2] % 2, -1.0, 1.0)
    idx = tuple(l[:, d] % dims[d] for d in range(3))
    spec = {}
    for name, c in coef.items():
        spec[name] = np.zeros(dims, dtype=complex)
        spec[name][idx] = ph * c
    ntot = int(np.prod(dims))
    out = {name: np.fft.ifftn(g) * ntot for name, g in spec.items()}
    out["x"] = dom.L1 * np.arange(dims[0]) / dims[0]
    out["y"] = dom.L2 * np.arange(dims[1]) / dims[1]
    out["z"] = -0.5 * dom.L3 + dom.L3 * np.arange(dims[2]) / dims[2]
    return out
