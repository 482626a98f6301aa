"""Periodic domain, wavevector lattice, spectral states, and norms.

The state of the model is a set of complex coefficients indexed by
(wavevector, branch) pairs, where the branch label picks one of the three
normal-mode families per wavevector: 0 for the slow (balanced) branch and
+1/-1 for the two fast wave branches.  This module defines the domain
geometry, the lattice index, the Sobolev/Gevrey norms on coefficient sets,
the reality (conjugate-symmetry) constraints, and the low/high truncation
split.

Conventions
-----------
* A mode key is a 4-tuple ``(l1, l2, l3, branch)`` of ints with
  ``branch in (-1, 0, 1)``.
* Physical wavevector components are ``k_i = 2*pi*l_i / L_i``.
* The zero wavevector is excluded from every state (zero-mean fields).
* Fast branches exist only when ``l3 != 0``.
* Cutoffs: state support is inclusive, ``|k| <= kmax``; truncation splits
  are strict, ``|k| < kappa``.
* Storage: key ``(l, branch)`` has the slot (branch row, wavevector row)
  of a (3, nk) array, rows for branches 0, +1, -1, wavevectors in the
  lexicographic order of a :class:`LatticeIndex`.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainSpec",
    "WaveVector",
    "SpectralState",
    "wavevectors",
    "sobolev_norm",
    "gevrey_norm",
    "enforce_reality",
    "check_reality",
    "truncate",
    "random_state",
]

SLOW = 0
FAST_PLUS = 1
FAST_MINUS = -1
BRANCHES = (0, 1, -1)
I2A = (0, 1, -1)  # slot row -> branch label
A2I = {0: 0, 1: 1, -1: 2}
_KEY_ORDER = np.array([2, 0, 1])  # slot rows in key order (labels -1, 0, 1)
FRAMES = ("rotated", "lab")
INDEX_CACHE_SIZE = 8  # lattice indices kept, least recently used dropped
# largest side 2 n + 1, with n the largest floor(kmax / k_factor_i), of the
# cube of integer triples that a lattice index spans with its candidate
# box and its row lookup: at most about 100 MB of working arrays.  kmax 8
# on the 2 pi cube has side 17; kmax 50 has 101.
INDEX_MAX_SIDE = 101


@dataclass(frozen=True)
class DomainSpec:
    """Periodic box [0,L1] x [0,L2] x [-L3/2, L3/2]."""

    L1: float = 2.0 * math.pi
    L2: float = 2.0 * math.pi
    L3: float = 2.0 * math.pi

    def __post_init__(self):
        for name in ("L1", "L2", "L3"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def volume(self) -> float:
        return self.L1 * self.L2 * self.L3

    def k_factors(self) -> np.ndarray:
        """Per-axis factors converting integer indices to physical components."""
        return 2.0 * np.pi / np.array([self.L1, self.L2, self.L3])

    def wavevector(self, l1: int, l2: int, l3: int) -> "WaveVector":
        return WaveVector.from_ints(self, (l1, l2, l3))


@dataclass(frozen=True)
class WaveVector:
    """A lattice wavevector: integer triple plus physical components."""

    l: tuple  # (l1, l2, l3) ints
    k: tuple  # physical (k1, k2, k3)

    @classmethod
    def from_ints(cls, domain: DomainSpec, l) -> "WaveVector":
        l = (int(l[0]), int(l[1]), int(l[2]))
        f = domain.k_factors()
        return cls(l=l, k=(f[0] * l[0], f[1] * l[1], f[2] * l[2]))

    @property
    def k3(self) -> float:
        return self.k[2]

    @property
    def kperp(self) -> float:
        """|k'|, the horizontal magnitude."""
        return math.hypot(self.k[0], self.k[1])

    @property
    def kabs(self) -> float:
        return math.sqrt(self.k[0] ** 2 + self.k[1] ** 2 + self.k[2] ** 2)

    @property
    def is_zero(self) -> bool:
        return self.l == (0, 0, 0)

    def has_fast(self) -> bool:
        return self.l[2] != 0


def _frequencies(k: np.ndarray) -> np.ndarray:
    """The (3, m) frequencies, rows slow/+/-, of an (m, 3) block of nonzero
    physical wavevectors: 0 on the slow row, omega^+- = +-|k|/k3 off the
    vertical axis and +-1 on it, and 0 on the fast rows where k3 = 0."""
    k3 = k[:, 2]
    wp = np.divide(np.sqrt((k ** 2).sum(axis=1)), k3, out=np.zeros(len(k)),
                   where=k3 != 0)
    wp[(k[:, 0] == 0) & (k[:, 1] == 0)] = 1.0
    return np.stack([np.zeros(len(k)), wp, -wp])


class LatticeIndex:
    """Slot layout of the lattice 0 < |k| <= kmax (|k| < kmax if strict):
    the integer triples in lexicographic order, their physical components
    and magnitudes, the slot frequencies, the triple -> row lookup and the
    reality orbits.  Built with numpy; no eigenframes."""

    def __init__(self, domain: DomainSpec, kmax: float, strict: bool = False):
        self.domain, self.kmax = domain, float(kmax)
        f = domain.k_factors()
        with np.errstate(divide="ignore"):  # an infinite box
            half = np.floor(self.kmax / f)
        side = 2 * half.max() + 1
        if not side <= INDEX_MAX_SIDE:
            raise ValueError(
                f"a lattice with kmax = {kmax:g} on the box {domain.L1:g} x "
                f"{domain.L2:g} x {domain.L3:g} spans {side:g} integers on "
                f"an axis, over INDEX_MAX_SIDE = {INDEX_MAX_SIDE}")
        axes = [np.arange(-n, n + 1) for n in half.astype(int)]
        ints = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        k = ints * f
        keep = ((k[:, 0] ** 2 + k[:, 1] ** 2 + k[:, 2] ** 2 <= kmax * kmax)
                & ints.any(axis=1))
        ints, k = ints[keep], k[keep]
        kabs = np.sqrt((k ** 2).sum(axis=1))
        keep = kabs < kmax if strict else slice(None)
        self.ints, self.kphys, self.kabs = ints[keep], k[keep], kabs[keep]
        self.nk = nk = len(self.ints)
        self.omega = _frequencies(self.kphys)
        self._span = span = int(np.abs(self.ints).max(initial=0))
        self._lut = np.full((2 * span + 1,) * 3, -1, dtype=np.int64)
        self._lut[tuple((self.ints + span).T)] = np.arange(nk)

        # Reality orbits, one column each, represented by their smallest
        # key: member g of the orbit of (a, l) lies at l, Zl, -l, -Zl for
        # g = 0..3 (Zl = (l1, l2, -l3)); a slot repeats where a group
        # element fixes its wavevector.
        vert = (self.ints[:, 0] == 0) & (self.ints[:, 1] == 0)
        z = self.ints * np.array([1, 1, -1])
        cols = np.stack([np.arange(nk), self.rows_of(z),
                         self.rows_of(-self.ints), self.rows_of(-z)])
        a = np.broadcast_to(np.arange(3)[:, None], (3, nk))
        swap = (3 - a) % 3  # the other fast branch; the slow row stays
        rows = np.stack([a, np.where(vert, a, swap), np.where(vert, swap, a),
                         swap])
        neg = np.zeros((4, 3, nk), dtype=bool)
        neg[2:, 0] = True      # slow: w0(-k) = -conj(w0(k))
        neg[1::2, 1:] = ~vert  # fast: ws(Zk) = -w(-s)(k) off the axis
        slots = (rows * nk + cols[:, None, :]).reshape(4, -1)
        valid = np.ones((3, nk), dtype=bool)
        valid[1:] = self.ints[:, 2] != 0
        rank = (3 * np.arange(nk) + np.array([1, 2, 0])[:, None]).ravel()
        rep = valid.ravel() & (rank == rank[slots].min(axis=0))
        self.orbits, self.orbit_neg = slots[:, rep], neg.reshape(4, -1)[:, rep]
        for arr in (self.ints, self.kphys, self.kabs, self.omega, self._lut,
                    self.orbits, self.orbit_neg):  # shared by the cache
            arr.flags.writeable = False

    def rows_of(self, ints) -> np.ndarray:
        """Rows for an (m,3) int array; -1 where outside the lattice."""
        ok = (np.abs(ints) <= self._span).all(axis=1)
        ii = np.where(ok[:, None], ints + self._span, 0)
        return np.where(ok, self._lut[ii[:, 0], ii[:, 1], ii[:, 2]], -1)

    def _slots(self, keys):
        """Slots (branch rows, wavevector rows) of mode keys; ValueError
        naming the first key that has none."""
        try:
            k = np.array(keys)
        except ValueError:  # ragged
            k = None
        if k is None or k.dtype.kind != "i" or k.shape != (len(keys), 4):
            for key in keys:  # name the first key that is not four int64s
                try:
                    ok = np.array(key, dtype=np.int64).tolist() == list(key)
                except (TypeError, ValueError, OverflowError):
                    ok = False
                if not ok or len(key) != 4:
                    raise ValueError(f"mode key must be four integers, "
                                     f"got {key!r}")
            k = np.array(keys, dtype=np.int64)  # integral floats, bools
        n, a = self.rows_of(k[:, :3]), k[:, 3]
        bad = (np.abs(a) > 1) | (n < 0) | ((a != SLOW) & (k[:, 2] == 0))
        if bad.any():
            key = tuple(k[np.argmax(bad)].tolist())
            if key[3] not in BRANCHES:
                msg = f"branch must be -1, 0 or +1, got {key[3]!r} in {key!r}"
            elif key[:3] == (0, 0, 0):
                msg = "zero wavevector carries no degrees of freedom"
            elif key[3] != SLOW and key[2] == 0:
                msg = f"fast branch at l3=0 does not exist: {key!r}"
            else:
                msg = (f"mode {key!r} has |k|="
                       f"{self.domain.wavevector(*key[:3]).kabs:g} > "
                       f"kmax={self.kmax:g}")
            raise ValueError(msg)
        return a % 3, n


@functools.lru_cache(maxsize=INDEX_CACHE_SIZE)
def _index(domain: DomainSpec, kmax: float, strict: bool) -> LatticeIndex:
    return LatticeIndex(domain, kmax, strict)


def _embed(w: np.ndarray, src: LatticeIndex, dst: LatticeIndex) -> np.ndarray:
    """Slot data (..., 3, src.nk) on the rows of dst: rows that dst lacks
    are dropped, rows that src lacks are zero (False)."""
    if src is dst:
        return w
    rows = dst.rows_of(src.ints)
    out = np.zeros(w.shape[:-1] + (dst.nk,), dtype=w.dtype)
    out[..., rows[rows >= 0]] = w[..., rows >= 0]
    return out


def wavevectors(domain: DomainSpec, kmax: float) -> list:
    """All nonzero lattice wavevectors with |k| <= kmax, lexicographic order.

    The order is lexicographic on the integer triple (l1, l2, l3); every
    summation in the package iterates modes in this order, so results are
    bit-reproducible.
    """
    return [WaveVector.from_ints(domain, l)
            for l in SpectralState(domain, kmax).index.ints.tolist()]


class SpectralState:
    """Map from mode keys to complex coefficients.

    Parameters
    ----------
    domain : DomainSpec
    kmax : float
        Support cutoff; every key must satisfy |k| <= kmax.
    coeffs : dict
        ``(l1,l2,l3,branch) -> complex``.  Copied on construction.
    frame : str
        'rotated' (wave phases factored out) or 'lab'.
    t : float
        Time stamp of the coefficients.

    The class behaves as an immutable mapping; arithmetic (+, -, scalar *)
    returns new states and requires matching domain/frame/time.  It stores
    ``array``, the (3, nk) slots on the lattice ``index``, and ``mask``, the
    slots present (a stored zero is present); both are read-only.
    """

    __slots__ = ("domain", "kmax", "frame", "t", "index", "array", "mask")

    def __init__(self, domain: DomainSpec, kmax: float, coeffs=None,
                 frame: str = "rotated", t: float = 0.0):
        if not kmax > 0:
            raise ValueError(f"kmax must be > 0, got {kmax}")
        index = _index(domain, float(kmax), False)
        w = np.zeros((3, index.nk), dtype=complex)
        mask = np.zeros((3, index.nk), dtype=bool)
        if coeffs:
            keys, vals = zip(*coeffs.items())
            slot = index._slots(keys)
            w[slot], mask[slot] = vals, True
        self._set(index, w, mask, frame, t)

    def _set(self, index, w, mask, frame, t):
        if frame not in FRAMES:
            raise ValueError(f"frame must be 'rotated' or 'lab', got {frame!r}")
        w.flags.writeable = mask.flags.writeable = False
        self.domain, self.kmax, self.index = index.domain, index.kmax, index
        self.frame, self.t, self.array, self.mask = frame, float(t), w, mask

    @classmethod
    def _of(cls, index: LatticeIndex, w: np.ndarray, mask=None,
            frame: str = "rotated", t: float = 0.0) -> "SpectralState":
        """Wrap (3, nk) slots of a non-strict index without a copy; the
        slots present are ``mask``, else the nonzero ones."""
        st = object.__new__(cls)
        st._set(index, w, w != 0 if mask is None else mask, frame, t)
        return st

    def _with(self, w, mask=None, frame=None, t=None) -> "SpectralState":
        return SpectralState._of(self.index, w, mask,
                                 self.frame if frame is None else frame,
                                 self.t if t is None else t)

    # -- mapping interface -------------------------------------------------
    def _slot(self, key):
        """The slot of a present key, else None."""
        try:
            (a,), (n,) = self.index._slots([key])
        except ValueError:
            return None
        return (a, n) if self.mask[a, n] else None

    def __len__(self):
        return int(np.count_nonzero(self.mask))

    def __iter__(self):
        return iter(self.keys())

    def __contains__(self, key):
        return self._slot(key) is not None

    def __getitem__(self, key):
        slot = self._slot(key)
        if slot is None:
            raise KeyError(key)
        return complex(self.array[slot])

    def get(self, key, default=0.0 + 0.0j):
        slot = self._slot(key)
        return default if slot is None else complex(self.array[slot])

    def items(self):
        n, j = np.nonzero(self.mask[_KEY_ORDER].T)
        return list(zip(self.keys(), self.array[_KEY_ORDER[j], n].tolist()))

    def keys(self):
        n, j = np.nonzero(self.mask[_KEY_ORDER].T)  # row j: label j - 1
        l1, l2, l3 = self.index.ints[n].T.tolist()
        return list(zip(l1, l2, l3, (j - 1).tolist()))

    # -- construction helpers ----------------------------------------------
    def replace(self, coeffs=None, frame=None, t=None) -> "SpectralState":
        if coeffs is None:
            return self._with(self.array, self.mask, frame, t)
        return SpectralState(self.domain, self.kmax, coeffs,
                             self.frame if frame is None else frame,
                             self.t if t is None else t)

    def _compat(self, other: "SpectralState") -> None:
        if self.domain != other.domain or self.kmax != other.kmax:
            raise ValueError("states live on different lattices")
        if self.frame != other.frame:
            raise ValueError(f"frame mismatch: {self.frame} vs {other.frame}")

    def __add__(self, other):
        self._compat(other)
        return self._with(self.array + other.array, self.mask | other.mask)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, a):
        if not isinstance(a, numbers.Number):
            return NotImplemented
        return self._with(np.where(self.mask, a * self.array, 0.0), self.mask)

    __rmul__ = __mul__

    def branch(self, which) -> "SpectralState":
        """Restrict to a set of branch labels (int or iterable of ints)."""
        if isinstance(which, int):
            which = (which,)
        keep = np.isin(I2A, list(which))[:, None]
        return self._with(np.where(keep, self.array, 0.0), self.mask & keep)

    def wavevector(self, key) -> WaveVector:
        return WaveVector.from_ints(self.domain, key[:3])


def _dot(a: np.ndarray, b: np.ndarray, weight=1.0) -> float:
    """Re sum weight a conj(b) over two (3, nk) slot arrays: the float
    products, gathered in key order (so the slot layout does not matter)
    and summed pairwise by numpy; no complex product sets the bits."""
    x = weight * (a.real * b.real + a.imag * b.imag)
    return float(x[_KEY_ORDER].T.ravel().sum())


def sobolev_norm(state: SpectralState, s: float = 0.0) -> float:
    """sqrt( sum_k |k|^(2s) sum_branches |w_k|^2 ).  Frame-independent."""
    w = state.array
    return math.sqrt(_dot(w, w, np.float_power(state.index.kabs, 2.0 * s)))


def gevrey_norm(state: SpectralState, sigma: float) -> float:
    """Sobolev s=0 norm with exponential weight e^(2*sigma*|k|), from
    libm's exp, which numpy's SIMD exp does not match bit for bit."""
    w, x = state.array, (2.0 * sigma * state.index.kabs).tolist()
    return math.sqrt(_dot(w, w, np.fromiter(map(math.exp, x), float, len(x))))


# -- reality constraints ---------------------------------------------------
#
# For real physical fields (with the even/odd z-symmetry) the coefficients
# satisfy, writing Zk = (k1, k2, -k3):
#   slow:           w0(-k) = -conj(w0(k)),  w0(Zk) =  w0(k)
#   fast, k' != 0:  ws(-k) =  conj(ws(k)),  ws(Zk) = -w(-s)(k)
#   fast, k'  = 0:  ws(0,0,-k3) = conj(w(-s)(0,0,k3))   (branches swap)
#
# The z-reflection swaps the fast branch with a sign (the reflected
# eigenvector is minus the opposite-branch one), which keeps v even in z.

def _orbit_transform(x: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Orbit transforms on member values x (4, m): conjugate members 2
    and 3, negate where ``neg``.  Each is an involution, so this maps
    representative values to member values and back."""
    x = np.concatenate([x[:2], x[2:].conj()])
    return np.where(neg, -x, x)


def _orbit_fill(state: SpectralState, unset_absent: bool):
    """The orbits holding a present slot, their member values x and the
    constrained values the orbit average of the pullbacks gives them: the
    average of the present members (``unset_absent``) or of all four."""
    have = state.mask.ravel()[state.index.orbits]
    hit = have.any(axis=0)
    orbits, neg = state.index.orbits[:, hit], state.index.orbit_neg[:, hit]
    have = have[:, hit] if unset_absent else np.ones(orbits.shape, bool)
    x = state.array.ravel()[orbits]
    pull = np.where(have, _orbit_transform(x, neg), 0.0)
    v = (pull[0] + pull[1] + pull[2] + pull[3]) / have.sum(axis=0)
    return orbits, x, _orbit_transform(np.broadcast_to(v, orbits.shape), neg)


def enforce_reality(state: SpectralState) -> SpectralState:
    """Project onto the reality-constraint set, orbit by orbit.

    For each constraint orbit, the representative value is the average of
    the pullbacks of the coefficients present in the state; all orbit slots
    (present or not) are then filled consistently.  Keys absent from the
    state are treated as unset, not as zero: a lone coefficient simply has
    its partners materialized, while an explicitly stored inconsistent
    partner participates in the average.  Idempotent.
    """
    orbits, _, fill = _orbit_fill(state, True)
    w = np.zeros(state.array.size, dtype=complex)
    for g in range(4):  # a slot met twice in one orbit keeps the later value
        w[orbits[g]] = fill[g]
    mask = np.bincount(orbits.ravel(), minlength=w.size) > 0
    return state._with(w.reshape(3, -1), mask.reshape(3, -1))


def check_reality(state: SpectralState) -> float:
    """Max constraint violation, treating absent orbit slots as zero."""
    _, x, fill = _orbit_fill(state, False)
    return float(np.abs(x - fill).max(initial=0.0))


def truncate(state: SpectralState, kappa: float):
    """Split into (low, high): |k| < kappa strictly vs the rest.

    low + high reassembles the state exactly; both keep the original
    lattice cutoff so they remain addable.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    low = state.index.kabs < kappa
    return tuple(state._with(np.where(sel, state.array, 0.0), state.mask & sel)
                 for sel in (low, ~low))


def random_state(domain: DomainSpec, kmax: float, rng=None,
                 scale: float = 1.0, frame: str = "rotated",
                 slow_only: bool = False) -> SpectralState:
    """Seeded Gaussian coefficients on the full lattice, then projected
    onto the reality-constraint set.  Deterministic for a seeded rng."""
    rng = np.random.default_rng(rng)
    index = SpectralState(domain, kmax).index
    mask = np.ones((3, index.nk), dtype=bool)
    mask[1:] = (index.ints[:, 2] != 0) & (not slow_only)
    # one (re, im) draw per slot: wavevector by wavevector, branch 0, +1, -1
    n, ai = np.nonzero(mask.T)
    z = rng.normal(size=(len(n), 2))
    w = np.zeros((3, index.nk), dtype=complex)
    w[ai, n] = scale * (z[:, 0] + 1j * z[:, 1])
    return enforce_reality(SpectralState._of(index, w, mask, frame))
