"""Iterative slow-manifold construction U^n and its remainder.

The balanced fast component is built as a graph over the low-mode slow
variables: U^1 = eps * Linv(f_fast - B_fast(W, W)), and each further order
corrects with the chain-rule term

    U^{n+1} = eps * Linv( -(DU^n) G^n - B_fast(W+U^n, W+U^n)
                          - A U^n + f_fast ),

where G^n = -B_slow(W+U^n, W+U^n) - A W + f_slow is the slow tendency on
the graph.  The directional derivative (DU^n) G^n is propagated exactly by
forward-mode jet arithmetic through the recursion: a jet is an array of
coefficient vectors indexed by a bitmask over perturbation directions, and
each bilinear operation convolves the components pairwise (i & j == 0).
No finite differencing enters the construction, so the algebraic identity

    R^n = (1/eps) * L (U^n - U^{n+1})

between the direct remainder and the order difference holds to rounding.

Everything lives on the strictly truncated lattice |k| < kappa and in the
rotated frame; phases are taken at the evaluation state's own time stamp
(at 0 for a lab-frame state), and the forcing at that stamp in either
frame, read as the march reads it: None is zero forcing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._engine import ModeTable, mode_table
from .dynamics import ForcingSpec, _forcing_rows
from .lattice import DomainSpec, SpectralState, sobolev_norm

__all__ = [
    "ManifoldApprox",
    "kappa_delta",
    "u1",
    "g_of",
    "iterate",
    "remainder_direct",
    "remainder_diff",
    "contraction_scan",
]


def kappa_delta(eps: float, kmax: float, n_max: int = 4, eta: float = 1.0):
    """Truncation radius, step and iteration cap for a given eps.

    kappa = min(eps^(-1/4), kmax), delta = eps^(1/4),
    n_cap = min(floor(eta / delta), n_max).  Requires 0 < eps <= 1.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    delta = eps ** 0.25
    kappa = min(1.0 / delta, float(kmax))
    n_cap = min(int(np.floor(eta / delta)), int(n_max))
    return kappa, delta, n_cap


class _Ctx:
    """Dense scratch bound to one (table, eps, mu, forcing) at one state:
    the forcing at the state's own time, read as the march reads it
    (``_forcing_rows``, None meaning zero), and the phases at that time
    in the rotated frame, at 0 in the lab frame."""

    def __init__(self, table: ModeTable, eps, mu,
                 forcing: ForcingSpec | None, state: SpectralState):
        self.table = table
        self.eps = float(eps)
        self.mu = float(mu)
        self.t = float(state.t if state.frame == "rotated" else 0.0)
        self.E = table.phase(self.t, self.eps)  # rotated -> lab per mode
        # forcing is stored lab-frame; rotated coefficient = f_lab / E
        fd = _forcing_rows(table, forcing)(state.t) / self.E
        self.f_slow = np.zeros_like(fd)
        self.f_slow[0] = fd[0]
        self.f_fast = fd - self.f_slow
        iw = 1j * table.omega
        self.linv_fast = np.zeros_like(iw)
        np.divide(1.0, iw, out=self.linv_fast, where=table.omega != 0.0)
        self.diff = self.mu * table.kabs[None, :] ** 2
        self._conv = table.conv("auto")
        self._memo = {}

    def conv(self, a, b):
        """Rotated-frame convolution of two plain (3, nk) blocks, computed
        once per distinct pair of operands in this context (the orders of
        the recursion repeat their lower orders' products bit for bit).
        The result is read-only."""
        key = (a.tobytes(), b.tobytes())
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self._product(a, b)
            out.flags.writeable = False
        return out

    def _product(self, a, b):
        return self._conv(self.E * a, self.E * b) / self.E

    def jet_B(self, a, b):
        """Jet-valued bilinear B: pairwise over disjoint bitmasks."""
        m = a.shape[0]
        out = np.zeros_like(a)
        for i in range(m):
            ai = a[i]
            if not ai.any():
                continue
            for j in range(m):
                if i & j or not b[j].any():
                    continue
                out[i | j] += self.conv(ai, b[j])
        return out


def _slow(j):
    out = np.zeros_like(j)
    out[..., 0, :] = j[..., 0, :]
    return out


def _fast(j):
    out = j.copy()
    out[..., 0, :] = 0.0
    return out


def _step(ctx: _Ctx, n: int, J: np.ndarray):
    """The order-n terms on a jet of slow states J: U^n, B(W+U^n, W+U^n)
    and (DU^n) G^n, where G^n is the slow tendency on the graph."""
    U = _eval_u(ctx, n, J)
    WU = J + U
    BWU = ctx.jet_B(WU, WU)
    G = _tendency(ctx, J, BWU)
    # extend the jet by one direction (top bit) carrying G, so the
    # derivative block of the call is exactly (DU^n) G
    DUG = _eval_u(ctx, n, np.concatenate([J, G], axis=0))[J.shape[0]:]
    return U, BWU, DUG


def _tendency(ctx: _Ctx, J: np.ndarray, BWU: np.ndarray) -> np.ndarray:
    """G = -B_slow(W+U, W+U) - A W + f_slow on the jet J of W."""
    G = -_slow(BWU) - ctx.diff * _slow(J)
    G[0] += ctx.f_slow
    return G


def _eval_u(ctx: _Ctx, n: int, J: np.ndarray) -> np.ndarray:
    """Order-n manifold on a jet of slow states; returns a fast jet."""
    if n == 0:
        return np.zeros_like(J)
    Um, BWU, DUG = _step(ctx, n - 1, J)
    rhs = -DUG - _fast(BWU) - ctx.diff * Um
    rhs[0] += ctx.f_fast
    return ctx.eps * ctx.linv_fast * rhs


@dataclass(frozen=True)
class ManifoldApprox:
    """Order-n balanced graph evaluator over the slow low modes.

    The evaluator accepts any state, keeps its slow part below the
    truncation radius, and returns the fast-branch balance at the same
    frame and time.  ``order`` 0 is the trivial graph U == 0.
    """

    domain: DomainSpec
    kappa: float
    eps: float
    mu: float
    forcing: ForcingSpec | None
    order: int = 1
    n_cap: int = field(default=None)
    eta: float = 1.0

    def __post_init__(self):
        if self.n_cap is None:
            _, _, cap = kappa_delta(min(self.eps, 1.0), self.kappa,
                                    eta=self.eta)
            object.__setattr__(self, "n_cap", max(cap, 1))
        for name in ("order", "n_cap"):
            v = getattr(self, name)
            if not (v >= 0 and v % 1 == 0):
                raise ValueError(f"{name} must be a whole number >= 0, "
                                 f"got {v!r}")
        if self.order > self.n_cap:
            raise ValueError(
                f"order {self.order} exceeds iteration cap {self.n_cap}")

    @property
    def table(self) -> ModeTable:
        return mode_table(self.domain, self.kappa, strict=True)

    def _at(self, state: SpectralState):
        """The context at ``state`` and its slow rows J, shape (1, 3, nk)."""
        return (_Ctx(self.table, self.eps, self.mu, self.forcing, state),
                _slow(self.table.dense(state))[None])

    def _rows(self, state: SpectralState, orders) -> list:
        """U^n at ``state`` as table rows, for each n in ``orders``, from
        one context: each order reuses the lower orders' products."""
        ctx, J = self._at(state)
        return [_eval_u(ctx, n, J)[0] for n in orders]

    def __call__(self, state: SpectralState) -> SpectralState:
        """U^n at ``state``."""
        u, = self._rows(state, (self.order,))
        return self.table.state(u, state.frame, state.t)

    def jet(self, state: SpectralState, directions):
        """Evaluate U^n and its exact directional derivatives.

        directions is a sequence of slow states; returns (U, [D_i U]).
        """
        dirs = list(directions)
        d = len(dirs)
        (ctx, J0), table = self._at(state), self.table
        J = np.zeros((1 << d, 3, table.nk), dtype=complex)
        J[0] = J0[0]
        for i, dv in enumerate(dirs):
            J[1 << i] = _slow(table.dense(dv))
        out = _eval_u(ctx, self.order, J)
        mk = lambda w: table.state(w, state.frame, state.t)
        return mk(out[0]), [mk(out[1 << i]) for i in range(d)]

    def remainder(self, state: SpectralState) -> SpectralState:
        return remainder_direct(self, state)


def u1(W0: SpectralState, forcing: ForcingSpec | None, eps: float,
       kappa: float = None, mu: float = 0.0) -> SpectralState:
    """First-order balance eps * Linv(f_fast - B_fast(W0, W0))."""
    if kappa is None:
        kappa = W0.kmax * (1 + 1e-9)  # keep the boundary shell
    return ManifoldApprox(W0.domain, kappa, eps, mu, forcing, order=1)(W0)


def g_of(W0: SpectralState, U: SpectralState, forcing: ForcingSpec | None,
         mu: float, kappa: float = None, eps: float = 1.0) -> SpectralState:
    """Slow tendency on the graph: -B_slow(W0+U, W0+U) - A W0 + f_slow."""
    if kappa is None:
        kappa = W0.kmax * (1 + 1e-9)
    table = mode_table(W0.domain, kappa, strict=True)
    ctx = _Ctx(table, eps, mu, forcing, W0)
    J = table.dense(W0)[None]
    WU = J + table.dense(U)
    return table.state(_tendency(ctx, J, ctx.jet_B(WU, WU))[0], W0.frame, W0.t)


def iterate(approx: ManifoldApprox) -> ManifoldApprox:
    """Next-order approximation; errors past the iteration cap."""
    if approx.order + 1 > approx.n_cap:
        raise ValueError(
            f"iteration cap reached: order {approx.order + 1} > "
            f"n_cap {approx.n_cap}")
    return replace(approx, order=approx.order + 1)


def remainder_direct(approx: ManifoldApprox, state: SpectralState
                     ) -> SpectralState:
    """R^n = (DU^n) G^n + (1/eps) L U^n + B_fast(W+U^n, W+U^n)
    + A U^n - f_fast, all on the truncated lattice."""
    R = _remainder(*approx._at(state), approx.order)
    return approx.table.state(R, state.frame, state.t)


def _remainder(ctx: _Ctx, J: np.ndarray, n: int) -> np.ndarray:
    """R^n as table rows at the slow rows J[0], in their context ``ctx``."""
    U, BWU, DUG = _step(ctx, n, J)
    return (DUG[0] + (1j * ctx.table.omega) / ctx.eps * U[0] + _fast(BWU)[0]
            + ctx.diff * U[0] - ctx.f_fast)


def remainder_diff(approx_n: ManifoldApprox, approx_np1: ManifoldApprox,
                   state: SpectralState) -> SpectralState:
    """R^n by the order difference (1/eps) L (U^n - U^{n+1}); the two
    orders share one context, so U^{n+1} reuses the products of U^n."""
    for attr in ("domain", "kappa", "eps", "mu", "forcing"):
        if getattr(approx_n, attr) != getattr(approx_np1, attr):
            raise ValueError(f"mismatched {attr} between orders")
    if approx_np1.order != approx_n.order + 1:
        raise ValueError("orders must be consecutive")
    Un, Un1 = approx_n._rows(state, (approx_n.order, approx_np1.order))
    table = approx_n.table
    return table.state((1j * table.omega / approx_n.eps) * (Un - Un1),
                       state.frame, state.t)


def contraction_scan(state: SpectralState, forcing: ForcingSpec | None,
                     mu: float, eps_list, kappa: float, n_hi: int = 3):
    """Remainder norms ||R^n|| for n = 0..n_hi over a list of eps.

    Returns (rows, eps_threshold): rows of (eps, [norms]), and the largest
    eps in the list for which the norms decrease strictly (None if none).
    """
    table = mode_table(state.domain, kappa, strict=True)
    J = _slow(table.dense(state))[None]
    rows = []
    thresh = None
    for eps in sorted(eps_list):
        # one context per eps: each order reuses the lower orders' products
        ctx = _Ctx(table, eps, mu, forcing, state)
        norms = [sobolev_norm(table.state(_remainder(ctx, J, n)))
                 for n in range(n_hi + 1)]
        rows.append((eps, norms))
        if all(b < a for a, b in zip(norms, norms[1:])):
            thresh = eps
    return rows, thresh
