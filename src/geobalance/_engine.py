"""Dense vectorized kernels shared by the convolution, dynamics, resonance
and manifold modules.

A :class:`ModeTable` adds to the lattice index of one (domain, cutoff)
pair the per-mode eigenvectors and advection vectors, built from the
closed forms in :mod:`geobalance.modes`.  Its kernels act on the (3, nk)
slot arrays that a :class:`~geobalance.lattice.SpectralState` stores (row
0 = slow branch, row 1 = plus, row 2 = minus, columns in lexicographic
wavevector order); fast slots at l3 = 0 are structurally zero.
:func:`mode_table` keeps the ``TABLE_CACHE_SIZE`` most recently used.

The table is the one triad engine: :meth:`ModeTable.closing_pairs` finds
the triads j + k = l inside the table, :meth:`ModeTable.coeff` holds the
factorized coefficient i (VX_j^a . k)(X_k^b . conj X_l^g), and
:meth:`ModeTable.fast_fast_slow` builds the fast-fast -> slow block of
many j rows at once.  :meth:`ModeTable.fast_fast_slow_blocks` walks the
rows in blocks of about ``TRIAD_BLOCK`` candidate pairs, whole rows
each; the resonance audit, its CSV scan and the frequency-weighted
operator all take their triads from it.

Two interchangeable convolution kernels are provided:

* ``conv_direct``: exact, alias-free Galerkin summation over the closing
  wavevector pairs j + k = l (the reference path).  The coefficient
  factorizes, so the sum over branch triples collapses onto the lab fields
  u = sum VX.w and F = sum X.what that ``conv_grid`` also forms:
  out[g, l] = conj X_l^g . sum_{j+k=l} i (u_j . k) F_k.  Its table, built
  lazily, holds one row of int32 indices per pair and no coefficients; a
  table and call arrays over ``DIRECT_MAX_BYTES`` raise ``MemoryError``
  while it is built.
* ``conv_grid``: pseudospectral product on a padded FFT grid, alias-free
  because the per-axis grid size is at least 3*lmax+1 (the fast path, and
  an independent physical-space oracle for the direct path).  It takes
  the divergence form i l_d (u_d F_c)_l, exact because k . u_k = 0 for
  every advection vector.  Lab fields of reality-constrained states are
  real, so each complex transform carries two of them: f_a + i f_b goes
  to the grid in one inverse transform, and two real products p + i q
  come back in one forward transform, split by P = (G + conj G(-l)) / 2
  and Q = (G - conj G(-l)) / 2i.  A self-product, as in every step of the
  march, shares u1 and u2 between u and F: 4 fields and 8 products in
  2 + 4 transforms; distinct operands take 6 and 9 in 3 + 5.  A lab field
  whose anti-Hermitian part exceeds ``REAL_TOL`` of its largest
  coefficient is split into real parts, f = h1 + i h2, and the product
  summed over them, so non-real inputs stay exact.

:meth:`ModeTable.conv` is the one dispatch point between them.  It accepts
the methods in ``CONV_METHODS``: ``"direct"``, ``"grid"``, or ``"auto"``,
which picks ``conv_direct`` for tables of at most ``AUTO_DIRECT_MAX_NK``
modes and ``conv_grid`` above, whichever measured faster.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .lattice import (A2I, I2A, DomainSpec, SpectralState, _embed,
                      _frequencies, _index)
from .modes import _frames

CONV_METHODS = ("auto", "direct", "grid")
# "auto" crossover, best of 50 calls on distinct operands in fresh
# processes on the 2 pi cube (2-vCPU Xeon, numpy 2.4), median of three,
# grid / direct: 0.37 / 0.26 ms at nk 122, 0.37 / 0.37 ms at nk 146
# (kmax 3.2), 0.41 / 0.61 ms at nk 170, 0.40 / 0.66 ms at nk 178, 0.40 /
# 0.87 ms at nk 202 and 0.64 / 1.42 ms at nk 256
AUTO_DIRECT_MAX_NK = 146
# conv_grid treats a lab field as real when its anti-Hermitian part is at
# most this times its largest coefficient (roundoff on constrained states)
REAL_TOL = 1e-13
# tables kept by mode_table, least recently used dropped first: enough for
# the full and strict-kappa tables of a scan, or one benchmark workload
TABLE_CACHE_SIZE = 4
# bytes per closing pair of conv_direct: four int32 indices in the table,
# and 64 bytes of working arrays in each call
PAIR_BYTES = 80
# largest pair table plus call arrays (with the (nk, nk) array of u_j . k)
# that conv_direct builds: kmax 8 on the cube needs about 240 MB; the
# bound also keeps j * nk + k within int32
DIRECT_MAX_BYTES = 2 ** 29

# candidate (j, k) pairs per block of ModeTable.fast_fast_slow_blocks and
# of the direct pair table (_row_blocks), in whole j rows (at least one).
# It sets memory and speed, not values: one whole-table block gives the
# same bits at kmax 4 and 5.  At 2,048 the audit and scan peak within 1.5%
# of one-row blocks' memory (which ran 1.9x as long); blocks of 1,024 ran
# 15% longer than these.
TRIAD_BLOCK = 2048

# conv_grid's products u_d F_c as (row of u_d, row of F_c) in the fields
# it transforms: (u1, u2, u3, rho) for a self-product, F = (u1, u2, rho),
# in the order that sets the march's bits; else (u1, u2, u3, F1, F2, F3)
SELF_PRODUCTS = ((0, 0), (0, 1), (0, 3), (1, 1), (1, 3), (2, 0), (2, 1),
                 (2, 3))
PAIR_PRODUCTS = tuple((d, c) for d in range(3) for c in range(3, 6))

# fast branch pairs (r, s) in canonical order; the rows of r and of s and
# the sign products r s, each shaped (4, 1)
FAST_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
R_ROWS, S_ROWS = (np.array([[A2I[p[i]]] for p in FAST_PAIRS]) for i in (0, 1))
_RS = np.array([[r * s] for r, s in FAST_PAIRS])
# the fast rows of r along a first axis and of s along a second: a
# (2, 2, m) array over them reshapes to (4, m) in FAST_PAIRS order
_R2, _S2 = (np.array([1, 2]).reshape(shape) for shape in ((2, 1, 1),
                                                          (1, 2, 1)))
# every (a, b, g) branch-row combination, shaped (3,1,1,1), (1,3,1,1), ...
_A3, _B3, _G3 = np.ix_(range(3), range(3), range(3), [0])[:3]


def _row_blocks(J: np.ndarray, n: int):
    """Slices of the rows J, whole rows of about ``TRIAD_BLOCK`` candidate
    pairs each when every row meets n candidates (at least one row)."""
    step = max(1, TRIAD_BLOCK // max(n, 1))
    return (J[i:i + step] for i in range(0, len(J), step))


def _check_frame_time(t: float, eps: float) -> None:
    """Refuse a frame time t that is not finite or an eps that is not
    finite and > 0: the phases exp(-i omega t / eps) would not be."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")


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


class Pairs(NamedTuple):
    """The closing wavevector pairs j + k = l of one table, ordered by l
    and then j; J, K, L and JK are int32."""

    J: np.ndarray       # rows j, (m,)
    K: np.ndarray       # rows k, (m,)
    L: np.ndarray       # rows l = j + k, (m,)
    JK: np.ndarray      # J * nk + K: the pair's entry of the (nk, nk) u_j . k
    rows: np.ndarray    # the distinct rows l, ascending
    starts: np.ndarray  # first pair of each of them


class FastFastSlow(NamedTuple):
    """The fast-fast -> slow triads of a block of table rows j: one column
    per closing pair (j, k), in (j, k) order."""

    J: np.ndarray     # rows j, (m,)
    K: np.ndarray     # rows k closing a triad with j, (m,)
    L: np.ndarray     # rows of l = j + k, (m,)
    wj: np.ndarray    # omega_j^r, (4, m)
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
        """The state's slots on this table's rows (see ``lattice._embed``);
        rows match by integer triple, so a state on another box is refused."""
        a, b = state.domain, self.domain
        if a != b:
            raise ValueError(
                f"input on the box {a.L1:g} x {a.L2:g} x {a.L3:g} does not "
                f"fit the state's box {b.L1:g} x {b.L2:g} x {b.L3:g}")
        return _embed(state.array, state.index, self.index)

    def state(self, w: np.ndarray, frame: str = "rotated", t: float = 0.0,
              mask=None) -> SpectralState:
        """Rows w (and ``mask``, else the nonzero slots) as a state on the
        (domain, kmax) lattice; a strict table's rows are re-embedded."""
        full = _index(self.domain, self.kmax, False) if self.strict \
            else self.index
        mask = mask if mask is None else _embed(mask, self.index, full)
        return SpectralState._of(full, _embed(w, self.index, full), mask,
                                 frame, t)

    def phase(self, t: float, eps: float) -> np.ndarray:
        """exp(-i omega t / eps), shape (3, nk); converts rotated -> lab.
        Refuses a time or eps that would give non-finite phases."""
        _check_frame_time(t, eps)
        return np.exp(-1j * self.omega * (t / eps))

    # -- the triad engine --------------------------------------------------
    def closing_pairs(self, J: np.ndarray, K: np.ndarray):
        """The pairs (j, k) of the rows J with the rows K whose sum j + k
        lies inside the table, in (j, k) order, and the rows L of those
        sums."""
        J, K = np.repeat(J, len(K)), np.tile(K, len(J))
        L = self.index.rows_of(self.ints[J] + self.ints[K])
        ok = L >= 0
        return J[ok], K[ok], L[ok]

    def coeff(self, a, J, b, K, g, L) -> np.ndarray:
        """Triad coefficients i (VX_j^a . k)(X_k^b . conj X_l^g), |M| excluded.

        Branch row indices a, b, g and table rows J, K, L are integers or
        integer arrays, broadcast against each other.
        """
        adv = 1j * np.einsum("...c,...c->...", self.VX[a, J], self.kphys[K])
        return adv * np.einsum("...c,...c->...", self.X[b, K],
                               np.conj(self.X[g, L]))

    def fast_fast_slow(self, J: np.ndarray, K: np.ndarray) -> FastFastSlow:
        """Fast-fast -> slow triads of the rows J with the closing rows of K.

        Arrays over the fast pairs are (4, m), in ``FAST_PAIRS`` order, and
        their columns are the closing pairs in (j, k) order; the
        symmetrized |M|-free coefficient is coeff[r,s,0; j,k,l] +
        coeff[s,r,0; k,j,l], and exact resonance is decided in integers on
        cube lattices, like :func:`exact_resonance`.
        """
        J, K, L = self.closing_pairs(J, K)
        wj = self.omega[R_ROWS, J]
        wk = self.omega[S_ROWS, K]
        wsum = wj + wk
        csum = (self.coeff(_R2, J, _S2, K, 0, L)
                + self.coeff(_S2, K, _R2, J, 0, L)).reshape(4, -1)
        d = self.domain
        if d.L1 == d.L2 == d.L3:
            j, k = self.ints[J], self.ints[K]
            jp0 = (j[:, 0] == 0) & (j[:, 1] == 0)
            kp0 = (k[:, 0] == 0) & (k[:, 1] == 0)
            cone = ((j ** 2).sum(axis=1) * k[:, 2] ** 2
                    == (k ** 2).sum(axis=1) * j[:, 2] ** 2)
            # omega^r = r |k|/k3 off the vertical axis, r on it
            opposite = _RS * np.sign(j[:, 2]) * np.sign(k[:, 2]) == -1
            res = np.where(jp0 & kp0, _RS == -1,
                           ~(jp0 | kp0) & cone & opposite)
        else:
            res = np.abs(wsum) <= 1e-12 * np.maximum(np.abs(wj), np.abs(wk))
        return FastFastSlow(J, K, L, wj, wk, wsum, csum, res)

    def fast_fast_slow_blocks(self, J: np.ndarray, K: np.ndarray):
        """:meth:`fast_fast_slow` of the rows J with K, one block of whole
        rows of J at a time, each of about ``TRIAD_BLOCK`` candidate pairs
        (at least one row); the blocks follow the order of J."""
        for Jb in _row_blocks(J, len(K)):
            yield self.fast_fast_slow(Jb, K)

    # -- direct triad table ------------------------------------------------
    def pairs(self) -> Pairs:
        """The closing-pair table of ``conv_direct``, built on first use."""
        return self._triads if self._triads is not None else \
            self._build_triads()

    def _build_triads(self) -> Pairs:
        """Collect the closing pairs in blocks of whole rows j
        (``_row_blocks``); ``MemoryError`` as soon as they and the call
        arrays pass ``DIRECT_MAX_BYTES``."""
        nk = self.nk
        rows = np.arange(nk)
        square = 16 * nk * nk  # complex u_j . k for every (j, k)
        blocks, m = [(rows[:0],) * 3], 0  # an empty block for nk = 0
        for Jb in _row_blocks(rows, nk):
            blocks.append(self.closing_pairs(Jb, rows))
            m += blocks[-1][0].size
            if square + PAIR_BYTES * m > DIRECT_MAX_BYTES:
                done = int(Jb[-1]) + 1
                projected = square + PAIR_BYTES * m * nk // done
                raise MemoryError(
                    f"direct convolution on nk = {nk} modes needs about "
                    f"{projected:,} bytes (pair table and call arrays, "
                    f"projected from {done} of {nk} rows), over "
                    f"DIRECT_MAX_BYTES = {DIRECT_MAX_BYTES:,}; use "
                    f"conv_grid")
        J, K, L = (np.concatenate(x).astype(np.int32) for x in zip(*blocks))
        order = np.lexsort((J, L))
        J, K, L = J[order], K[order], L[order]
        targets, starts = np.unique(L, return_index=True)
        self._triads = Pairs(J, K, L, J * np.int32(nk) + K, targets, starts)
        return self._triads

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
        """Galerkin convolution by direct summation over the closing pairs."""
        p = self.pairs()
        u = np.einsum("an,anc->nc", w, self.VX)
        F = np.einsum("an,anc->cn", what, self.X)
        terms = np.take(F, p.K, axis=1)
        terms *= np.take(u @ self.kphys.T, p.JK)  # u_j . k
        adv = np.zeros((3, self.nk), dtype=complex)
        adv[:, p.rows] = np.add.reduceat(terms, p.starts, axis=1)
        return 1j * np.einsum("cn,anc->an", adv, np.conj(self.X))

    # -- pseudospectral grid path ------------------------------------------
    def _grid_setup(self):
        lmax = np.abs(self.ints).max(axis=0)
        dims = tuple(_next_fast_len(3 * int(m) + 1) for m in lmax)
        flat = np.ravel_multi_index(tuple(self.ints.T), dims, mode="wrap")
        mirror = self.index.rows_of(-self.ints)
        self._grid = (dims, flat, flat[mirror], mirror)

    def _to_grid(self, a, b):
        """The complex grid field f_a + i f_b of two real fields, given by
        their (nk,) Hermitian coefficients."""
        dims, flat, _, _ = self._grid
        g = np.zeros(dims, dtype=complex)
        g.reshape(-1)[flat] = a + 1j * b
        return np.fft.ifftn(g, norm="forward", out=g)

    def _from_grid(self, g):
        """The coefficients P, Q of the real fields p, q in g = p + i q:
        P = (G + conj G[mirror]) / 2 and Q = (G - conj G[mirror]) / 2i.
        Transforms g in place."""
        _, flat, flat_m, _ = self._grid
        G = np.fft.fftn(g, norm="forward", out=g).reshape(-1)
        Gl, Gm = G[flat], np.conj(G[flat_m])
        return 0.5 * (Gl + Gm), -0.5j * (Gl - Gm)

    def _divergence(self, f: np.ndarray, products) -> np.ndarray:
        """u . grad F as i l_d (u_d F_c)_l, from the (m, nk) Hermitian
        coefficients f of real lab fields, two per inverse transform, and
        the products u_d F_c as rows of f, two per forward transform."""
        grids = [self._to_grid(a, b) for a, b in zip(f[::2], f[1::2])]
        x = [y for g in grids for y in (g.real, g.imag)]
        buf = np.empty_like(grids[0])
        P = {}
        for i in range(0, len(products), 2):
            pair = products[i:i + 2]
            if len(pair) == 1:
                buf.imag = 0.0
            for (d, c), part in zip(pair, (buf.real, buf.imag)):
                np.multiply(x[d], x[c], out=part)
            for (d, c), Pdc in zip(pair, self._from_grid(buf)):
                P[d, c] = P[c, d] = Pdc
        k1, k2, k3 = self.kphys.T
        return 1j * np.array([k1 * P[0, c] + k2 * P[1, c] + k3 * P[2, c]
                              for c in sorted({c for _, c in products})])

    def _is_real(self, f: np.ndarray) -> bool:
        """Whether the anti-Hermitian part of the (m, nk) lab fields f is
        at most ``REAL_TOL`` of their largest coefficient."""
        mirror = self._grid[3]
        return (np.abs(f - np.conj(f[:, mirror])).max()
                <= 2 * REAL_TOL * np.abs(f).max())

    def _real_parts(self, f: np.ndarray):
        """(factor, Hermitian part) pairs summing to the (3, nk) lab field
        f: f itself when it is real (``_is_real``), else f = h1 + i h2."""
        if self._is_real(f):
            return ((1, f),)
        fm = np.conj(f[:, self._grid[3]])
        return ((1, 0.5 * (f + fm)), (1j, -0.5j * (f - fm)))

    def conv_grid(self, w: np.ndarray, what: np.ndarray) -> np.ndarray:
        """Same convolution via physical-space products on a padded grid.

        Reconstructs the advecting velocity u from w and the advected
        3-component field F from what, forms the products u_d F_c
        pointwise, and projects their divergence back onto the eigenframe.
        A self-product (``w is what``) of real lab fields transforms the
        four fields u and F share.  Otherwise each operand is split into
        real parts when its lab field is not real, and the product is
        summed over the parts (it is bilinear).
        """
        if self._grid is None:
            self._grid_setup()
        u = np.einsum("an,anc->cn", w, self.VX)
        if w is what:
            f = np.concatenate((u, np.einsum("an,an->n", what,
                                             self.X[..., 2])[None]))
            if self._is_real(f):
                adv = self._divergence(f, SELF_PRODUCTS)
                return np.einsum("cn,anc->an", adv, np.conj(self.X))
            F = f[[0, 1, 3]]
        else:
            F = np.einsum("an,anc->cn", what, self.X)
        Fparts = self._real_parts(F)
        adv = sum(a * b * self._divergence(np.concatenate((up, Fp)),
                                           PAIR_PRODUCTS)
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
