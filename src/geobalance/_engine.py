"""Dense vectorized kernels shared by the convolution, dynamics, resonance
and manifold modules.

A :class:`ModeTable` adds to the lattice index of one (domain, cutoff)
pair the per-mode eigenvectors and advection vectors, built from the
closed forms in :mod:`geobalance.modes`.  Its kernels act on the (3, nk)
slot arrays that a :class:`~geobalance.lattice.SpectralState` stores (row
0 = slow branch, row 1 = plus, row 2 = minus, columns in lexicographic
wavevector order); fast slots at l3 = 0 are structurally zero.
:func:`mode_table` keeps the ``TABLE_CACHE_SIZE`` most recently used.

The table is the one triad engine: :meth:`ModeTable.closing_rows` finds
the triads j + k = l inside the table, :meth:`ModeTable.coeff` holds the
factorized coefficient i (VX_j^a . k)(X_k^b . conj X_l^g), and
:meth:`ModeTable.fast_fast_slow` builds the fast-fast -> slow block that
the resonance audit and the frequency-weighted operator share.

Two interchangeable convolution kernels are provided:

* ``conv_direct``: summation over a precomputed triad index table (the
  reference path; exact Galerkin convolution, built lazily).
* ``conv_grid``: pseudospectral product on a padded FFT grid, alias-free
  because the per-axis grid size is at least 3*lmax+1 (the fast path, and
  an independent physical-space oracle for the direct path).  The lab
  fields of reality-constrained states are real, so it scatters only the
  l3 >= 0 half-spectrum, uses real-to-complex transforms one field at a
  time, and fills the l3 < 0 output rows by conjugation.  A lab field
  whose anti-Hermitian part exceeds ``REAL_TOL`` times its largest
  coefficient is split into two real fields, f = h1 + i h2, and the real
  product runs on each pair of parts, so non-real inputs stay exact.

:meth:`ModeTable.conv` is the one dispatch point between them.  It accepts
the methods in ``CONV_METHODS``: ``"direct"``, ``"grid"``, or ``"auto"``,
which picks ``conv_direct`` for tables of at most ``AUTO_DIRECT_MAX_NK``
modes and ``conv_grid`` above, whichever measured faster.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .lattice import (A2I, I2A, DomainSpec, SpectralState, _frequencies,
                      _index)
from .modes import _frames

CONV_METHODS = ("auto", "direct", "grid")
# "auto" crossover, best of 50 calls on the 2 pi cube (2-vCPU Xeon, numpy
# 2.4), grid / direct: 0.64 / 0.57 ms at nk 80, 0.67 / 0.76 ms at nk 92
AUTO_DIRECT_MAX_NK = 80
# conv_grid treats a lab field as real when its anti-Hermitian part is at
# most this times its largest coefficient (roundoff on constrained states)
REAL_TOL = 1e-13
# tables kept by mode_table, least recently used dropped first: enough for
# the full and strict-kappa tables of a scan, or one benchmark workload
TABLE_CACHE_SIZE = 4

# fast branch pairs (r, s) in canonical order; the rows of r and of s and
# the sign products r s, each shaped (4, 1)
FAST_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
R_ROWS, S_ROWS = (np.array([[A2I[p[i]]] for p in FAST_PAIRS]) for i in (0, 1))
_RS = np.array([[r * s] for r, s in FAST_PAIRS])
# every (a, b, g) branch-row combination, shaped (3,1,1,1), (1,3,1,1), ...
_A3, _B3, _G3 = np.ix_(range(3), range(3), range(3), [0])[:3]


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (keeps FFTs fast without scipy)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class FastFastSlow(NamedTuple):
    """The fast-fast -> slow triads of one table row j."""

    K: np.ndarray     # rows k closing a triad, (m,)
    L: np.ndarray     # rows of l = j + k, (m,)
    wj: np.ndarray    # omega_j^r, (4, 1)
    wk: np.ndarray    # omega_k^s, (4, m)
    wsum: np.ndarray  # omega_j^r + omega_k^s, (4, m)
    csum: np.ndarray  # symmetrized coefficient, |M| excluded, (4, m)
    res: np.ndarray   # exact resonance, (4, m)


class ModeTable:
    """Frozen per-mode arrays for one (domain, kmax) lattice."""

    def __init__(self, domain: DomainSpec, kmax: float, strict: bool = False):
        self.domain = domain
        self.kmax = float(kmax)
        self.strict = bool(strict)
        self.index = ix = _index(domain, self.kmax, self.strict)
        self.nk = ix.nk
        self.ints, self.kphys, self.kabs, self.omega = (ix.ints, ix.kphys,
                                                        ix.kabs, ix.omega)
        self.fast_ok = self.ints[:, 2] != 0
        self.X, self.VX = _frames(self.kphys)
        self._triads = None
        self._grid = None

    def dense(self, state: SpectralState) -> np.ndarray:
        """The state's (read-only) slot array, on this table's rows."""
        return state._on(self.index)

    def phase(self, t: float, eps: float) -> np.ndarray:
        """exp(-i omega t / eps), shape (3, nk); converts rotated -> lab."""
        return np.exp(-1j * self.omega * (t / eps))

    # -- the triad engine --------------------------------------------------
    def closing_rows(self, jn: int, K: np.ndarray):
        """Rows k of K with j + k inside the table (j = row jn), and the
        rows of those sums l = j + k."""
        L = self.index.rows_of(self.ints[jn][None, :] + self.ints[K])
        ok = L >= 0
        return K[ok], L[ok]

    def coeff(self, a, J, b, K, g, L) -> np.ndarray:
        """Triad coefficients i (VX_j^a . k)(X_k^b . conj X_l^g), |M| excluded.

        Branch row indices a, b, g and table rows J, K, L are integers or
        integer arrays, broadcast against each other.
        """
        adv = 1j * np.einsum("...c,...c->...", self.VX[a, J], self.kphys[K])
        return adv * np.einsum("...c,...c->...", self.X[b, K],
                               np.conj(self.X[g, L]))

    def fast_fast_slow(self, jn: int, K: np.ndarray) -> FastFastSlow:
        """Fast-fast -> slow triads of row jn with the closing rows of K.

        Arrays over the fast pairs are (4, m), in ``FAST_PAIRS`` order; the
        symmetrized |M|-free coefficient is coeff[r,s,0; j,k,l] +
        coeff[s,r,0; k,j,l], and exact resonance is decided in integers on
        cube lattices, like :func:`exact_resonance`.
        """
        K, L = self.closing_rows(jn, K)
        wj = self.omega[R_ROWS, jn]
        wk = self.omega[S_ROWS, K]
        wsum = wj + wk
        csum = (self.coeff(R_ROWS, jn, S_ROWS, K, 0, L)
                + self.coeff(S_ROWS, K, R_ROWS, jn, 0, L))
        d = self.domain
        if d.L1 == d.L2 == d.L3:
            j, k = self.ints[jn], self.ints[K]
            jp0 = j[0] == 0 and j[1] == 0
            kp0 = (k[:, 0] == 0) & (k[:, 1] == 0)
            cone = ((j ** 2).sum() * k[:, 2] ** 2
                    == (k ** 2).sum(axis=1) * j[2] ** 2)
            # omega^r = r |k|/k3 off the vertical axis, r on it
            opposite = _RS * np.sign(j[2]) * np.sign(k[:, 2]) == -1
            res = np.where(jp0 & kp0, _RS == -1,
                           ~(jp0 | kp0) & cone & opposite)
        else:
            res = np.abs(wsum) <= 1e-12 * np.maximum(np.abs(wj), np.abs(wk))
        return FastFastSlow(K, L, wj, wk, wsum, csum, res)

    # -- direct triad table ------------------------------------------------
    def _build_triads(self):
        z = np.zeros(0, dtype=np.int64)
        jj, kk, ll, cc = [z], [z], [z], [np.zeros(0, dtype=complex)]
        nk = self.nk
        rows = np.arange(nk)
        for jn in range(nk):
            K, L = self.closing_rows(jn, rows)
            c = self.coeff(_A3, jn, _B3, K, _G3, L)  # (a, b, g, m)
            ai, bi, gi, m = np.nonzero(c)
            jj.append(ai * nk + jn)
            kk.append(bi * nk + K[m])
            ll.append(gi * nk + L[m])
            cc.append(c[ai, bi, gi, m])
        self._triads = (np.concatenate(jj), np.concatenate(kk),
                        np.concatenate(ll), np.concatenate(cc))

    # -- convolution -------------------------------------------------------
    def conv(self, method: str = "auto"):
        """The convolution kernel for ``method``, one of ``CONV_METHODS``."""
        if method == "auto":
            method = "direct" if self.nk <= AUTO_DIRECT_MAX_NK else "grid"
        if method == "direct":
            return self.conv_direct
        if method == "grid":
            return self.conv_grid
        raise ValueError(f"unknown convolution method {method!r}; "
                         f"choose from {', '.join(CONV_METHODS)}")

    def conv_direct(self, w: np.ndarray, what: np.ndarray) -> np.ndarray:
        """Galerkin convolution by direct triad summation."""
        if self._triads is None:
            self._build_triads()
        jj, kk, ll, cc = self._triads
        terms = cc * w.reshape(-1)[jj] * what.reshape(-1)[kk]
        out = (np.bincount(ll, weights=terms.real, minlength=3 * self.nk)
               + 1j * np.bincount(ll, weights=terms.imag, minlength=3 * self.nk))
        return out.reshape(3, self.nk)

    # -- pseudospectral grid path ------------------------------------------
    def _grid_setup(self):
        lmax = np.abs(self.ints).max(axis=0)
        dims = tuple(_next_fast_len(3 * int(m) + 1) for m in lmax)
        half = self.ints[:, 2] >= 0
        idx = tuple(np.mod(self.ints[half, d], dims[d]) for d in range(3))
        mirror = self.index.rows_of(-self.ints)
        self._grid = (dims, half, idx, mirror)

    def _real_product(self, u: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Coefficients of u . grad F for real fields u and F, each given
        by its (3, nk) Hermitian coefficients, of which only the l3 >= 0
        rows are read."""
        dims, half, idx, mirror = self._grid
        spec = np.zeros(dims[:2] + (dims[2] // 2 + 1,), dtype=complex)

        def to_grid(coef):
            spec[idx] = coef
            return np.fft.irfftn(spec, s=dims, axes=(0, 1, 2),
                                  norm="forward")

        ik = 1j * self.kphys[half]
        ugrid = [to_grid(ud) for ud in u[:, half]]
        adv = np.empty((3, self.nk), dtype=complex)
        for c, Fc in enumerate(F[:, half]):
            acc = ugrid[0] * to_grid(ik[:, 0] * Fc)
            for d in (1, 2):
                acc += ugrid[d] * to_grid(ik[:, d] * Fc)
            adv[c, half] = np.fft.rfftn(acc, norm="forward")[idx]
        adv[:, ~half] = np.conj(adv[:, mirror[~half]])
        return adv

    def _real_parts(self, f: np.ndarray):
        """(factor, Hermitian part) pairs summing to the (3, nk) lab field
        f: f itself when its anti-Hermitian part is at most
        ``REAL_TOL`` of its largest coefficient, else f = h1 + i h2."""
        _, _, _, mirror = self._grid
        fm = np.conj(f[:, mirror])
        if np.abs(f - fm).max() <= 2 * REAL_TOL * np.abs(f).max():
            return ((1, f),)
        return ((1, 0.5 * (f + fm)), (1j, -0.5j * (f - fm)))

    def conv_grid(self, w: np.ndarray, what: np.ndarray) -> np.ndarray:
        """Same convolution via physical-space products on a padded grid.

        Reconstructs the advecting velocity u from w and the advected
        3-component field F from what, forms u . grad(F) pointwise with
        real-to-complex transforms, and projects back onto the eigenframe.
        Inputs whose lab fields are not real are split into real parts,
        and the product is summed over them (it is bilinear).
        """
        if self._grid is None:
            self._grid_setup()
        u = np.einsum("an,anc->cn", w, self.VX)
        F = np.einsum("an,anc->cn", what, self.X)
        Fparts = self._real_parts(F)
        adv = sum(a * b * self._real_product(up, Fp)
                  for a, up in self._real_parts(u) for b, Fp in Fparts)
        return np.einsum("cn,anc->an", adv, np.conj(self.X))


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _table(domain: DomainSpec, kmax: float, strict: bool) -> ModeTable:
    return ModeTable(domain, kmax, strict)


def mode_table(domain: DomainSpec, kmax: float, strict: bool = False) -> ModeTable:
    """The shared table of one lattice, from a cache of the
    ``TABLE_CACHE_SIZE`` most recently used (``_table.cache_info()``)."""
    return _table(domain, float(kmax), bool(strict))


def exact_resonance(domain: DomainSpec, j, r, k, s) -> bool:
    """Whether omega_j^r + omega_k^s = 0, decided exactly on cube lattices.

    j, k are integer triples with j3 != 0 and k3 != 0.  On a cube the cone
    condition is the integer identity |j|^2 k3^2 = |k|^2 j3^2 plus a sign
    check; anisotropic boxes fall back to a relative tolerance of 1e-12.
    """
    j = tuple(int(x) for x in j)
    k = tuple(int(x) for x in k)
    jp0 = j[0] == 0 and j[1] == 0
    kp0 = k[0] == 0 and k[1] == 0
    if jp0 and kp0:
        return r == -s
    if jp0 or kp0:
        return False  # |omega| = 1 on one side, > 1 on the other
    if domain.L1 == domain.L2 == domain.L3:
        nj2 = j[0] ** 2 + j[1] ** 2 + j[2] ** 2
        nk2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
        if nj2 * k[2] ** 2 != nk2 * j[2] ** 2:
            return False
        return (r if j[2] > 0 else -r) == -(s if k[2] > 0 else -s)
    w = _frequencies(np.array([j, k]) * domain.k_factors())
    wj, wk = w[A2I[r], 0], w[A2I[s], 1]
    return abs(wj + wk) <= 1e-12 * max(abs(wj), abs(wk))
