"""Normal-mode eigenframe of the fast linear operator and related maps.

Per wavevector k the linear wave operator has eigenvalues i*omega with
omega in {0, omega_plus, omega_minus}; its eigenvectors X0, X+, X- (complex
3-vectors over the components (u1, u2, rho)) are known in closed form and
are never computed numerically.  Branch coefficients are obtained by the
Hermitian projection w_alpha = F . conj(X_alpha) of the 3-vector
coefficient F, and all diagonal operators (L, L^-1, I_omega) act directly
on branch coefficients.

The closed forms below are each written once, as numpy expressions over a
block of wavevectors (omega in ``lattice._frequencies``, X and VX in
:func:`_frames`); the mode tables, the vector maps and the one-wavevector
accessors all read them.

Cases (k3 = vertical component, k' = horizontal part):
* generic (k3 != 0, k' != 0): omega_pm = +-|k|/k3 (signed),
  X0 = (k2, -k1, k3)/|k|,
  X_pm = (-k2 k3 +- i k1|k|, k1 k3 +- i k2|k|, |k'|^2) / (sqrt2 |k'||k|).
* k' = 0: omega_pm = +-1, X0 = (0,0,sgn k3), X_pm = (1, -+i, 0)/sqrt2.
* k3 = 0: only the slow branch exists, X0 = (k2, -k1, 0)/|k'|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (_KEY_ORDER, A2I, SLOW, SpectralState, WaveVector,
                      _frequencies)

__all__ = [
    "EigenFrame",
    "frequencies",
    "eigenframe",
    "advection_vector",
    "apply_L",
    "apply_Linv",
    "apply_Iomega",
    "slow_fast_split",
    "to_vector_coefficients",
    "from_vector_coefficients",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class EigenFrame:
    """Eigenvectors and frequencies at one wavevector.

    X_plus/X_minus are None when the fast branches are absent (k3 = 0).
    """

    X0: np.ndarray
    X_plus: np.ndarray | None
    X_minus: np.ndarray | None
    omega0: float
    omega_plus: float | None
    omega_minus: float | None

    @property
    def has_fast(self) -> bool:
        return self.X_plus is not None

    def X(self, branch: int) -> np.ndarray:
        v = {0: self.X0, 1: self.X_plus, -1: self.X_minus}[branch]
        if v is None:
            raise ValueError("fast branch absent at k3=0")
        return v

    def omega(self, branch: int) -> float:
        w = {0: self.omega0, 1: self.omega_plus, -1: self.omega_minus}[branch]
        if w is None:
            raise ValueError("fast branch absent at k3=0")
        return w


def _frames(k: np.ndarray):
    """Eigenvectors X and advection vectors VX, each (3, m, 3) in rows
    slow/+/-, of an (m, 3) block of nonzero physical wavevectors; fast rows
    are zero where k3 = 0.  VX is X with rho replaced by the vertical
    velocity u3 that incompressibility gives (0 on the slow branch)."""
    k1, k2, k3 = k.T
    kp = np.hypot(k1, k2)
    ka = np.sqrt((k ** 2).sum(axis=1))
    vert, gen = kp == 0, (kp != 0) & (k3 != 0)
    # the forms divide complex numerators: numpy multiplies by the
    # reciprocal there, which rounds unlike a real division
    X = np.zeros((3,) + k.shape, dtype=complex)
    X[0] = (np.array([k2, -k1, k3], dtype=complex).T
            / np.where(k3 == 0, kp, ka)[:, None])
    X[0, vert] = 0.0
    X[0, vert, 2] = np.sign(k3[vert])
    X[1:, vert] = np.array([[[1.0, -1j, 0.0]], [[1.0, 1j, 0.0]]]) / _SQRT2
    g1, g2, g3, gp, ga = (x[gen] for x in (k1, k2, k3, kp, ka))
    a, b, c = -g2 * g3, g1 * g3, gp * gp + 0j
    i1, i2 = 1j * g1 * ga, 1j * g2 * ga
    den = (_SQRT2 * gp * ga)[:, None]
    X[1, gen] = np.array([a + i1, b + i2, c]).T / den
    X[2, gen] = np.array([a - i1, b - i2, c]).T / den
    VX = X.copy()
    VX[0, :, 2] = 0.0
    # u3 = -+i |k'| / (sqrt2 k3), unreduced and in real arithmetic: that
    # order of operations gives the tables' established bits
    VX[1:, gen, 2] = np.array([[-1j], [1j]]) * (gp * gp * ga / g3
                                               / (_SQRT2 * ga * gp))
    return X, VX


def _block(what: str, *ks: WaveVector) -> np.ndarray:
    """Nonzero wavevectors as an (m, 3) block."""
    if any(k.is_zero for k in ks):
        raise ValueError(f"zero wavevector has no {what}")
    return np.array([k.k for k in ks])


def frequencies(k: WaveVector):
    """(omega0, omega_plus, omega_minus); fast entries None when k3 = 0."""
    w = _frequencies(_block("mode frequencies", k))[:, 0].tolist()
    return (w[0], *(w[1:] if k.has_fast() else (None, None)))


def eigenframe(k: WaveVector) -> EigenFrame:
    X = _frames(_block("eigenframe", k))[0][:, 0]
    fast = (X[1], X[2]) if k.has_fast() else (None, None)
    return EigenFrame(X[0], *fast, *frequencies(k))


def advection_vector(k: WaveVector, branch: int) -> np.ndarray:
    """Incompressible 3-velocity (u1,u2,u3) advecting on behalf of a mode
    (see :func:`_frames`)."""
    VX = _frames(_block("advection vector", k))[1][:, 0]
    a = A2I[branch]
    if a and not k.has_fast():
        raise ValueError("fast branch absent at k3=0")
    return VX[a]


# -- diagonal operators on branch coefficients -----------------------------

def _fast(state: SpectralState):
    """The present fast slots and the frequency per slot (1 elsewhere)."""
    mask = state.mask & np.array([[False], [True], [True]])
    return mask, np.where(mask, state.index.omega, 1.0)


def apply_L(state: SpectralState) -> SpectralState:
    """Fast coefficients times i*omega; slow branch is the kernel (-> 0)."""
    mask, omega = _fast(state)
    return state._with(np.where(mask, 1j * omega * state.array, 0.0), mask)


def apply_Linv(state: SpectralState) -> SpectralState:
    """Inverse on the range of L; rejects states with slow content."""
    slow = state.array[SLOW] != 0.0
    if slow.any():
        key = (*state.index.ints[np.argmax(slow)].tolist(), SLOW)
        raise ValueError(f"apply_Linv: mode {key!r} lies in the kernel of L")
    mask, omega = _fast(state)
    return state._with(np.where(mask, state.array / (1j * omega), 0.0), mask)


def apply_Iomega(state: SpectralState) -> SpectralState:
    """Fast coefficients scaled by i/omega; slow coefficients dropped.

    Since |omega| >= 1 on every fast branch, this never increases any
    Sobolev norm.
    """
    mask, omega = _fast(state)
    return state._with(np.where(mask, 1j * state.array / omega, 0.0), mask)


# -- analysis / synthesis and the slow-fast split --------------------------

def _vectors(state: SpectralState):
    """The (u1,u2,rho) 3-vectors (nk, 3) summed over the branches in key
    order, zero on rows without a key, and the rows with one."""
    rows = state.mask.any(axis=0)
    X, _ = _frames(state.index.kphys[rows])
    F = np.zeros((state.index.nk, 3), dtype=complex)
    F[rows] = sum(state.array[a, rows, None] * X[a] for a in _KEY_ORDER)
    return F, rows


def to_vector_coefficients(state: SpectralState) -> dict:
    """Branch coefficients -> per-wavevector (u1,u2,rho) 3-vectors."""
    F, rows = _vectors(state)
    return dict(zip(map(tuple, state.index.ints[rows].tolist()), F[rows]))


def from_vector_coefficients(domain, kmax, vcoeffs, frame="rotated",
                             t=0.0) -> SpectralState:
    """Per-wavevector 3-vectors -> branch coefficients (Hermitian dots)."""
    l = np.array(list(vcoeffs), dtype=np.int64).reshape(-1, 3)
    index = SpectralState(domain, kmax).index
    _, n = index._slots(np.c_[l, np.zeros_like(l[:, :1])])  # names a bad key
    X, _ = _frames(index.kphys[n])
    F = np.array(list(vcoeffs.values()), dtype=complex).reshape(-1, 3)
    w = np.zeros((3, index.nk), dtype=complex)
    w[:, n] = (F[:, None, :] @ np.conj(X)[..., None])[..., 0, 0]  # np.dot bits
    mask = np.zeros((3, index.nk), dtype=bool)
    mask[0, n] = True
    mask[1:, n] = l[:, 2] != 0
    return SpectralState._of(index, w, mask, frame, t)


def slow_fast_split(state: SpectralState, check_tol: float = 1e-10):
    """Split into (slow, fast) branch states, W = W0 + We exactly.

    Cross-checks the slow coefficient of every populated wavevector against
    the potential-vorticity route: q = curl_h v - d_z rho gives
    w0 = i q_k / |k| after inverting the Laplacian, which must agree with
    the eigenvector projection.
    """
    W0 = state.branch(SLOW)
    We = state.branch((1, -1))
    F, rows = _vectors(state)
    k1, k2, k3 = state.index.kphys.T
    q = 1j * (k1 * F[:, 1] - k2 * F[:, 0]) - 1j * k3 * F[:, 2]
    # on the vertical axis the Laplacian inversion of q sees no horizontal
    # content; the slow amplitude is the (signed) rho component directly
    w0_pv = np.where((k1 == 0) & (k2 == 0), np.sign(k3) * F[:, 2],
                     1j * q / state.index.kabs)
    w0 = W0.array[SLOW]
    scale = np.maximum(1.0, np.linalg.norm(F, axis=1))
    bad = rows & (np.abs(w0 - w0_pv) > check_tol * scale)
    if bad.any():
        n = np.argmax(bad)
        l = tuple(state.index.ints[n].tolist())
        raise ValueError(f"slow/PV inconsistency at {l}: {w0[n]} vs {w0_pv[n]}")
    return W0, We
