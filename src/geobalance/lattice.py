"""Periodic domain, wavevector lattice, spectral states, and norms.

The state of the model is a set of complex coefficients indexed by
(wavevector, branch) pairs, where the branch label picks one of the three
normal-mode families per wavevector: 0 for the slow (balanced) branch and
+1/-1 for the two fast wave branches.  This module defines the domain
geometry, the integer lattice enumeration, the Sobolev/Gevrey norms on
coefficient sets, the reality (conjugate-symmetry) constraints, and the
low/high truncation split.

Conventions
-----------
* A mode key is a 4-tuple ``(l1, l2, l3, branch)`` of ints with
  ``branch in (-1, 0, 1)``.
* Physical wavevector components are ``k_i = 2*pi*l_i / L_i``.
* The zero wavevector is excluded from every state (zero-mean fields).
* Fast branches exist only when ``l3 != 0``.
* Cutoffs: state support is inclusive, ``|k| <= kmax``; truncation splits
  are strict, ``|k| < kappa``.
"""

from __future__ import annotations

import math
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


def wavevectors(domain: DomainSpec, kmax: float) -> list:
    """All nonzero lattice wavevectors with |k| <= kmax, lexicographic order.

    The order is lexicographic on the integer triple (l1, l2, l3); every
    summation in the package iterates modes in this order, so results are
    bit-reproducible.
    """
    if not kmax > 0:
        raise ValueError(f"kmax must be > 0, got {kmax}")
    f = domain.k_factors()
    nmax = [int(math.floor(kmax / fi)) for fi in f]
    out = []
    for l1 in range(-nmax[0], nmax[0] + 1):
        for l2 in range(-nmax[1], nmax[1] + 1):
            for l3 in range(-nmax[2], nmax[2] + 1):
                if l1 == l2 == l3 == 0:
                    continue
                kk = (f[0] * l1) ** 2 + (f[1] * l2) ** 2 + (f[2] * l3) ** 2
                if kk <= kmax * kmax:
                    out.append(WaveVector.from_ints(domain, (l1, l2, l3)))
    return out


def _validate_key(key) -> None:
    if len(key) != 4:
        raise ValueError(f"mode key must be (l1,l2,l3,branch), got {key!r}")
    l1, l2, l3, a = key
    if a not in BRANCHES:
        raise ValueError(f"branch must be -1, 0 or +1, got {a!r} in {key!r}")
    if l1 == l2 == l3 == 0:
        raise ValueError("zero wavevector carries no degrees of freedom")
    if a != SLOW and l3 == 0:
        raise ValueError(f"fast branch at l3=0 does not exist: {key!r}")


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
    returns new states and requires matching domain/frame/time.
    """

    __slots__ = ("domain", "kmax", "frame", "t", "_c")

    def __init__(self, domain: DomainSpec, kmax: float, coeffs=None,
                 frame: str = "rotated", t: float = 0.0):
        if frame not in ("rotated", "lab"):
            raise ValueError(f"frame must be 'rotated' or 'lab', got {frame!r}")
        if not kmax > 0:
            raise ValueError(f"kmax must be > 0, got {kmax}")
        self.domain = domain
        self.kmax = float(kmax)
        self.frame = frame
        self.t = float(t)
        c = {}
        if coeffs:
            f = domain.k_factors()
            for key, val in coeffs.items():
                key = (int(key[0]), int(key[1]), int(key[2]), int(key[3]))
                _validate_key(key)
                kk = math.sqrt((f[0] * key[0]) ** 2 + (f[1] * key[1]) ** 2
                               + (f[2] * key[2]) ** 2)
                if kk > self.kmax * (1 + 1e-12):
                    raise ValueError(f"mode {key!r} has |k|={kk:g} > kmax={kmax:g}")
                c[key] = complex(val)
        self._c = c

    # -- mapping interface -------------------------------------------------
    def __len__(self):
        return len(self._c)

    def __iter__(self):
        return iter(sorted(self._c))

    def __contains__(self, key):
        return key in self._c

    def __getitem__(self, key):
        return self._c[key]

    def get(self, key, default=0.0 + 0.0j):
        return self._c.get(key, default)

    def items(self):
        return [(k, self._c[k]) for k in sorted(self._c)]

    def keys(self):
        return sorted(self._c)

    # -- construction helpers ----------------------------------------------
    def replace(self, coeffs=None, frame=None, t=None) -> "SpectralState":
        return SpectralState(self.domain, self.kmax,
                             self._c if coeffs is None else coeffs,
                             self.frame if frame is None else frame,
                             self.t if t is None else t)

    def _compat(self, other: "SpectralState") -> None:
        if self.domain != other.domain or self.kmax != other.kmax:
            raise ValueError("states live on different lattices")
        if self.frame != other.frame:
            raise ValueError(f"frame mismatch: {self.frame} vs {other.frame}")

    def __add__(self, other):
        self._compat(other)
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0.0) + v
        return self.replace(coeffs=c)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, a):
        return self.replace(coeffs={k: a * v for k, v in self._c.items()})

    __rmul__ = __mul__

    def branch(self, which) -> "SpectralState":
        """Restrict to a set of branch labels (int or iterable of ints)."""
        if isinstance(which, int):
            which = (which,)
        return self.replace(coeffs={k: v for k, v in self._c.items()
                                    if k[3] in which})

    def wavevector(self, key) -> WaveVector:
        return WaveVector.from_ints(self.domain, key[:3])


def _kabs(state: SpectralState, key) -> float:
    f = state.domain.k_factors()
    return math.sqrt((f[0] * key[0]) ** 2 + (f[1] * key[1]) ** 2
                     + (f[2] * key[2]) ** 2)


def sobolev_norm(state: SpectralState, s: float = 0.0) -> float:
    """sqrt( sum_k |k|^(2s) sum_branches |w_k|^2 ).  Frame-independent."""
    acc = 0.0
    for key in state:
        acc += _kabs(state, key) ** (2.0 * s) * abs(state[key]) ** 2
    return math.sqrt(acc)


def gevrey_norm(state: SpectralState, sigma: float) -> float:
    """Sobolev s=0 norm with exponential weight e^(2*sigma*|k|)."""
    acc = 0.0
    for key in state:
        acc += math.exp(2.0 * sigma * _kabs(state, key)) * abs(state[key]) ** 2
    return math.sqrt(acc)


# -- reality constraints ---------------------------------------------------
#
# For real physical fields (with the even/odd z-symmetry) the coefficients
# satisfy, writing Zk = (k1, k2, -k3):
#   slow:           w0(-k) = -conj(w0(k)),  w0(Zk) =  w0(k)
#   fast, k' != 0:  ws(-k) =  conj(ws(k)),  ws(Zk) = -ws(k)
#   fast, k'  = 0:  ws(0,0,-k3) = conj(w(-s)(0,0,k3))   (branches swap)
#
# Each constraint orbit is listed as (slot_key, transform) pairs, where
# transform maps the representative value to the slot value.  Every
# transform is an involution, so it also maps a slot value back to a
# representative candidate.

def _apply_tr(tr, v):
    if tr == "id":
        return v
    if tr == "neg":
        return -v
    if tr == "conj":
        return v.conjugate()
    if tr == "negconj":
        return -v.conjugate()
    raise AssertionError(tr)


def _orbit(key):
    """Constraint orbit of a mode key: list of (slot_key, transform_name).

    One entry per symmetry-group element; slot keys may repeat when the
    wavevector is fixed by a group element (e.g. l3 = 0, or l' = 0).
    """
    l1, l2, l3, a = key
    if a == SLOW:
        return [((l1, l2, l3, 0), "id"),
                ((l1, l2, -l3, 0), "id"),
                ((-l1, -l2, -l3, 0), "negconj"),
                ((-l1, -l2, l3, 0), "negconj")]
    if l1 == 0 and l2 == 0:
        # -l and Zl coincide; realness conjugate-swaps branches and the
        # z-reflection fixes each branch, so the orbit ties both branches
        # at both signs of l3 together.
        return [((0, 0, l3, a), "id"),
                ((0, 0, -l3, a), "id"),
                ((0, 0, -l3, -a), "conj"),
                ((0, 0, l3, -a), "conj")]
    # The z-reflection maps branch a at (l1,l2,l3) to branch -a at
    # (l1,l2,-l3) with a sign: the reflected eigenvector equals minus the
    # opposite-branch one and the frequencies swap accordingly.  Keeping
    # the branch fixed instead would still give real fields but would
    # break the evenness of v in z.
    return [((l1, l2, l3, a), "id"),
            ((l1, l2, -l3, -a), "neg"),
            ((-l1, -l2, -l3, a), "conj"),
            ((-l1, -l2, l3, -a), "negconj")]


def enforce_reality(state: SpectralState) -> SpectralState:
    """Project onto the reality-constraint set, orbit by orbit.

    For each constraint orbit, the representative value is the average of
    the pullbacks of the coefficients present in the state; all orbit slots
    (present or not) are then filled consistently.  Keys absent from the
    state are treated as unset, not as zero: a lone coefficient simply has
    its partners materialized, while an explicitly stored inconsistent
    partner participates in the average.  Idempotent.
    """
    out = {}
    seen = set()
    for key in state:
        if key in seen:
            continue
        orbit = _orbit(key)
        vals = [_apply_tr(tr, state[sk]) for sk, tr in orbit if sk in state]
        v = sum(vals) / len(vals)
        for sk, tr in orbit:
            out[sk] = _apply_tr(tr, v)
            seen.add(sk)
    return state.replace(coeffs=out)


def check_reality(state: SpectralState) -> float:
    """Max constraint violation, treating absent orbit slots as zero."""
    worst = 0.0
    seen = set()
    for key in state:
        if key in seen:
            continue
        orbit = _orbit(key)
        v = sum(_apply_tr(tr, state.get(sk)) for sk, tr in orbit) / len(orbit)
        for sk, tr in orbit:
            worst = max(worst, abs(state.get(sk) - _apply_tr(tr, v)))
            seen.add(sk)
    return worst


def truncate(state: SpectralState, kappa: float):
    """Split into (low, high): |k| < kappa strictly vs the rest.

    low + high reassembles the state exactly; both keep the original
    lattice cutoff so they remain addable.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    lo, hi = {}, {}
    for key in state:
        (lo if _kabs(state, key) < kappa else hi)[key] = state[key]
    return state.replace(coeffs=lo), state.replace(coeffs=hi)


def random_state(domain: DomainSpec, kmax: float, rng=None,
                 scale: float = 1.0, frame: str = "rotated",
                 slow_only: bool = False) -> SpectralState:
    """Seeded Gaussian coefficients on the full lattice, then projected
    onto the reality-constraint set.  Deterministic for a seeded rng."""
    import numpy as _np
    if rng is None or isinstance(rng, int):
        rng = _np.random.default_rng(rng)
    c = {}
    for kv in wavevectors(domain, kmax):
        branches = (SLOW,) if slow_only or kv.l[2] == 0 else BRANCHES
        for a in branches:
            re, im = rng.normal(size=2)
            c[(*kv.l, a)] = scale * complex(re, im)
    return enforce_reality(SpectralState(domain, kmax, c, frame=frame))
