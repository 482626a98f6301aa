"""Triad interaction coefficients and the Galerkin convolution B(W, What).

The advective nonlinearity couples modes on triads j + k = l.  In the
eigenframe its coefficient factorizes as

    B[a,b,g; j,k,l] = i * (VX_j^a . k) * (X_k^b . conj(X_l^g)),

where VX_j^a is the incompressible advection velocity of the j-mode and
the second factor is the Hermitian projection of the advected eigenvector
onto the output branch.  Coefficients here exclude the box-volume factor
|M|; the L^2 pairing helper reinstates it, so energy identities read
exactly as in the continuous system.
"""

from __future__ import annotations

import numpy as np

from ._engine import (_A3, _B3, _G3, A2I, I2A, R_ROWS, S_ROWS,
                      _check_frame_time, mode_table)
from .lattice import SLOW, SpectralState, WaveVector, _dot
from .modes import _block, _frames

__all__ = [
    "coeff",
    "coeff_bounds",
    "pairing",
    "apply_B",
    "apply_B_slow",
    "apply_B_fast",
    "apply_Bomega",
    "dump_coeffs_csv",
]


def coeff(domain, j, alpha, k, beta, l, gamma) -> complex:
    """Single modal interaction coefficient; zero unless j + k = l.

    j, k, l are integer triples; alpha, beta, gamma branch labels.
    """
    j = tuple(int(x) for x in j)
    k = tuple(int(x) for x in k)
    l = tuple(int(x) for x in l)
    if tuple(a + b for a, b in zip(j, k)) != l:
        return 0.0j
    if (alpha != SLOW and j[2] == 0) or (beta != SLOW and k[2] == 0) \
            or (gamma != SLOW and l[2] == 0) or l == (0, 0, 0):
        return 0.0j
    jv, kv, lv = (WaveVector.from_ints(domain, x) for x in (j, k, l))
    X, VX = _frames(_block("eigenframe", jv, kv, lv))
    adv, xb, xg = VX[A2I[alpha], 0], X[A2I[beta], 1], X[A2I[gamma], 2]
    return 1j * complex(np.dot(adv, kv.k)) * complex(np.dot(xb, np.conj(xg)))


def coeff_bounds(domain, j, k, l, case: str) -> float:
    """Explicit majorant of |M| * |coeff| for the two displayed families.

    case '00s': slow-slow -> fast, bound (3|M|/sqrt2) |k'||j'| / |j|.
    case 'rs0': fast-fast -> slow, bound sqrt5 |M| (|k'| + |j'||k3|/|j3|);
    zero when j3 = 0 since the coefficient itself vanishes.
    """
    jv = WaveVector.from_ints(domain, j)
    kv = WaveVector.from_ints(domain, k)
    vol = domain.volume
    if case == "00s":
        return 3.0 * vol / np.sqrt(2.0) * kv.kperp * jv.kperp / jv.kabs
    if case == "rs0":
        if jv.l[2] == 0:
            return 0.0
        return np.sqrt(5.0) * vol * (kv.kperp
                                     + jv.kperp * abs(kv.k3) / abs(jv.k3))
    raise ValueError(f"case must be '00s' or 'rs0', got {case!r}")


def pairing(a: SpectralState, b: SpectralState) -> complex:
    """L^2 pairing |M| * sum_m a_m conj(b_m) over the common lattice; the
    imaginary part is Re sum a conj(i b), so both come from float products."""
    a._compat(b)
    x, y = a.array, b.array
    return a.domain.volume * complex(_dot(x, y), _dot(x, 1j * y))


def apply_B(W: SpectralState, What: SpectralState, frame_time=None,
            method: str = "auto") -> SpectralState:
    """Galerkin convolution, output truncated to the shared lattice.

    With ``frame_time = (t, eps)`` the inputs are treated as rotated-frame
    coefficients: each input mode picks up its phase exp(-i omega t/eps)
    and the output the inverse phase, which reproduces the per-triad
    factor exp(i (omega_l - omega_j - omega_k) t / eps) exactly.
    """
    W._compat(What)
    table = mode_table(W.domain, W.kmax)
    conv = table.conv(method)
    w, what = W.array, What.array
    if frame_time is not None:
        t, eps = frame_time
        E = table.phase(t, eps)
        out = conv(E * w, E * what) / E
    else:
        out = conv(w, what)
    return table.state(out, W.frame, W.t)


def apply_B_slow(W, What, frame_time=None, method="auto") -> SpectralState:
    return apply_B(W, What, frame_time, method).branch(SLOW)


def apply_B_fast(W, What, frame_time=None, method="auto") -> SpectralState:
    return apply_B(W, What, frame_time, method).branch((1, -1))


def apply_Bomega(We: SpectralState, Whate: SpectralState,
                 frame_time=None) -> SpectralState:
    """Frequency-weighted fast-fast -> slow transfer operator.

    Output slow coefficient at l = j + k:

        (i/2) * sum' (b[r,s,0;j,k,l] + b[s,r,0;k,j,l]) / (omega_j^r +
        omega_k^s) * w_j^r what_k^s * exp(-i (omega_j^r + omega_k^s) t/eps)

    where the primed sum omits exactly resonant pairs (decided exactly on
    cube lattices).  Inputs must be purely fast.  An output key is present
    where at least one present, non-resonant input pair with a nonzero
    coefficient sum lands.
    """
    We._compat(Whate)
    for st, name in ((We, "first"), (Whate, "second")):
        if st.mask[0].any():
            key = (*st.index.ints[np.argmax(st.mask[0])].tolist(), SLOW)
            raise ValueError(f"apply_Bomega: {name} input has slow "
                             f"content at {key!r}")
    if frame_time is not None:
        t, eps = frame_time
        _check_frame_time(t, eps)
    table = mode_table(We.domain, We.kmax)
    w, wh = We.array, Whate.array
    has_w, has_wh = We.mask, Whate.mask
    J = np.nonzero(has_w.any(axis=0))[0]
    K = np.nonzero(has_wh.any(axis=0))[0]
    acc = np.zeros(table.nk, dtype=complex)
    hit = np.zeros(table.nk, dtype=bool)
    for b in table.fast_fast_slow_blocks(J, K):
        keep = (has_w[R_ROWS, b.J] & has_wh[S_ROWS, b.K] & ~b.res
                & (b.csum != 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            val = (0.5j * b.csum / b.wsum * w[R_ROWS, b.J]
                   * wh[S_ROWS, b.K])
        if frame_time is not None:
            # in place, so val stays the first factor: numpy's complex
            # product is not bitwise commutative, and past 256 KiB it
            # evaluates val * (temporary) as (temporary) *= val
            val *= np.exp(-1j * b.wsum * t / eps)
        # summed over (r, s) per pair, then added in pair order, so that
        # each l sums its pairs in j order
        np.add.at(acc, b.L, np.where(keep, val, 0.0).sum(axis=0))
        hit[b.L[keep.any(axis=0)]] = True
    mask = np.zeros((3, table.nk), dtype=bool)
    mask[0] = hit  # acc is zero off the hit rows
    return table.state(np.where(mask, acc, 0.0), We.frame, We.t, mask)


def dump_coeffs_csv(domain, kmax: float, path) -> int:
    """Write all nonzero coefficients with |j|,|k|,|l| <= kmax as CSV.

    Columns: j1,j2,j3,alpha,k1,k2,k3,beta,l1,l2,l3,gamma,re,im.
    Returns the number of rows written.
    """
    table = mode_table(domain, kmax)
    J, K, L = table.pairs()[:3]
    c = table.coeff(_A3, J, _B3, K, _G3, L)  # (a, b, g, pair)
    ai, bi, gi, m = np.nonzero(c)
    n = table.nk
    jj, kk, ll = ai * n + J[m], bi * n + K[m], gi * n + L[m]
    cc = c[ai, bi, gi, m]
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# interaction coefficients, |M| factor excluded\n")
        fh.write(f"# domain = {domain.L1:.17g} {domain.L2:.17g} "
                 f"{domain.L3:.17g}, kmax = {kmax:.17g}\n")
        fh.write("j1,j2,j3,alpha,k1,k2,k3,beta,l1,l2,l3,gamma,re,im\n")
        order = np.lexsort((ll, kk, jj))
        for m in order:
            ja, jn = divmod(int(jj[m]), n)
            ka, kn = divmod(int(kk[m]), n)
            la, ln = divmod(int(ll[m]), n)
            j = table.ints[jn]
            k = table.ints[kn]
            l = table.ints[ln]
            fh.write(f"{j[0]},{j[1]},{j[2]},{I2A[ja]},"
                     f"{k[0]},{k[1]},{k[2]},{I2A[ka]},"
                     f"{l[0]},{l[1]},{l[2]},{I2A[la]},"
                     f"{cc[m].real:.17g},{cc[m].imag:.17g}\n")
            rows += 1
    return rows
