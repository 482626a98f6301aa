"""Normal-mode eigenframe of the fast linear operator and related maps.

Per wavevector k the linear wave operator has eigenvalues i*omega with
omega in {0, omega_plus, omega_minus}; its eigenvectors X0, X+, X- (complex
3-vectors over the components (u1, u2, rho)) are known in closed form and
are never computed numerically.  Branch coefficients are obtained by the
Hermitian projection w_alpha = F . conj(X_alpha) of the 3-vector
coefficient F, and all diagonal operators (L, L^-1, I_omega) act directly
on branch coefficients.

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

from .lattice import _KEY_ORDER, I2A, SLOW, SpectralState, WaveVector

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


def frequencies(k: WaveVector):
    """(omega0, omega_plus, omega_minus); fast entries None when k3 = 0."""
    if k.is_zero:
        raise ValueError("zero wavevector has no mode frequencies")
    k3 = k.k3
    if k3 == 0.0:
        return (0.0, None, None)
    if k.kperp == 0.0:
        return (0.0, 1.0, -1.0)
    w = k.kabs / k3
    return (0.0, w, -w)


def eigenframe(k: WaveVector) -> EigenFrame:
    if k.is_zero:
        raise ValueError("zero wavevector has no eigenframe")
    k1, k2, k3 = k.k
    kp = k.kperp
    ka = k.kabs
    _, wp, wm = frequencies(k)
    if k3 == 0.0:
        X0 = np.array([k2, -k1, 0.0], dtype=complex) / kp
        return EigenFrame(X0, None, None, 0.0, None, None)
    if kp == 0.0:
        sg = 1.0 if k3 > 0 else -1.0
        X0 = np.array([0.0, 0.0, sg], dtype=complex)
        Xp = np.array([1.0, -1.0j, 0.0]) / _SQRT2
        Xm = np.array([1.0, 1.0j, 0.0]) / _SQRT2
        return EigenFrame(X0, Xp, Xm, 0.0, wp, wm)
    X0 = np.array([k2, -k1, k3], dtype=complex) / ka
    den = _SQRT2 * kp * ka
    Xp = np.array([-k2 * k3 + 1j * k1 * ka, k1 * k3 + 1j * k2 * ka, kp * kp]) / den
    Xm = np.array([-k2 * k3 - 1j * k1 * ka, k1 * k3 - 1j * k2 * ka, kp * kp]) / den
    return EigenFrame(X0, Xp, Xm, 0.0, wp, wm)


def advection_vector(k: WaveVector, branch: int) -> np.ndarray:
    """Incompressible 3-velocity (u1,u2,u3) advecting on behalf of a mode.

    For the fast branches this is V X: the horizontal part of the
    eigenvector with the vertical velocity recovered from incompressibility
    (u3 has no prognostic slot; rho occupies the third component of X).
    For the slow branch the flow is purely horizontal, so u3 = 0 and the
    horizontal components are those of X0.
    """
    if k.is_zero:
        raise ValueError("zero wavevector has no advection vector")
    fr = eigenframe(k)
    if branch == SLOW:
        out = fr.X0.copy()
        out[2] = 0.0
        return out
    X = fr.X(branch)
    k1, k2, k3 = k.k
    kp = k.kperp
    if kp == 0.0:
        return X.copy()
    ka = k.kabs
    r = float(branch)
    out = X.copy()
    out[2] = -1j * r * kp * kp * ka / k3 / (_SQRT2 * ka * kp)
    return out


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
    F = np.zeros((state.index.nk, 3), dtype=complex)
    for n in np.flatnonzero(rows).tolist():
        fr = eigenframe(state.wavevector(state.index.ints[n]))
        F[n] = sum(state.array[a, n] * fr.X(I2A[a]) for a in _KEY_ORDER
                   if a == 0 or fr.has_fast)
    return F, rows


def to_vector_coefficients(state: SpectralState) -> dict:
    """Branch coefficients -> per-wavevector (u1,u2,rho) 3-vectors."""
    F, rows = _vectors(state)
    return dict(zip(map(tuple, state.index.ints[rows].tolist()), F[rows]))


def from_vector_coefficients(domain, kmax, vcoeffs, frame="rotated",
                             t=0.0) -> SpectralState:
    """Per-wavevector 3-vectors -> branch coefficients (Hermitian dots)."""
    c = {}
    for l, F in vcoeffs.items():
        k = WaveVector.from_ints(domain, l)
        fr = eigenframe(k)
        c[(*l, 0)] = complex(np.dot(F, np.conj(fr.X0)))
        if fr.has_fast:
            c[(*l, 1)] = complex(np.dot(F, np.conj(fr.X_plus)))
            c[(*l, -1)] = complex(np.dot(F, np.conj(fr.X_minus)))
    return SpectralState(domain, kmax, c, frame, t)


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
