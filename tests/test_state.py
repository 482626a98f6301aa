"""The array-backed SpectralState against per-key reference loops.

The reference functions below are the dict algorithms the array
expressions replace, kept here as oracles: one coefficient at a time, in
sorted key order.  Random sparse states hold stored zeros and always touch
the vertical (l' = 0) and horizontal (l3 = 0) constraint orbits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geobalance import _engine, lattice
from geobalance.dynamics import apply_A
from geobalance.interactions import apply_B, pairing
from geobalance.lattice import (DomainSpec, SpectralState, check_reality,
                                enforce_reality, gevrey_norm, random_state,
                                WaveVector, sobolev_norm, truncate,
                                wavevectors)
from geobalance.modes import (apply_Iomega, apply_L, apply_Linv, eigenframe,
                              frequencies, slow_fast_split,
                              to_vector_coefficients)

DOM = DomainSpec()
BOX = DomainSpec(2 * math.pi, 4.0, 3.0)
TOL = 1e-13
SEEDS = st.integers(min_value=0, max_value=10 ** 6)


# -- per-key reference loops --------------------------------------------------

def _orbit_ref(key):
    l1, l2, l3, a = key
    if a == 0:
        return [((l1, l2, l3, 0), "id"), ((l1, l2, -l3, 0), "id"),
                ((-l1, -l2, -l3, 0), "negconj"),
                ((-l1, -l2, l3, 0), "negconj")]
    if l1 == 0 and l2 == 0:
        return [((0, 0, l3, a), "id"), ((0, 0, -l3, a), "id"),
                ((0, 0, -l3, -a), "conj"), ((0, 0, l3, -a), "conj")]
    return [((l1, l2, l3, a), "id"), ((l1, l2, -l3, -a), "neg"),
            ((-l1, -l2, -l3, a), "conj"), ((-l1, -l2, l3, -a), "negconj")]


def _tr_ref(tr, v):
    return {"id": v, "neg": -v, "conj": v.conjugate(),
            "negconj": -v.conjugate()}[tr]


def enforce_ref(c):
    out, seen = {}, set()
    for key in sorted(c):
        if key in seen:
            continue
        orbit = _orbit_ref(key)
        vals = [_tr_ref(tr, c[sk]) for sk, tr in orbit if sk in c]
        v = sum(vals) / len(vals)
        for sk, tr in orbit:
            out[sk] = _tr_ref(tr, v)
            seen.add(sk)
    return out


def check_ref(c):
    worst, seen = 0.0, set()
    for key in sorted(c):
        if key in seen:
            continue
        orbit = _orbit_ref(key)
        v = sum(_tr_ref(tr, c.get(sk, 0j)) for sk, tr in orbit) / len(orbit)
        for sk, tr in orbit:
            worst = max(worst, abs(c.get(sk, 0j) - _tr_ref(tr, v)))
            seen.add(sk)
    return worst


def _kabs_ref(dom, key):
    return dom.wavevector(*key[:3]).kabs


def _omega_ref(dom, key):
    return frequencies(dom.wavevector(*key[:3]))[{0: 0, 1: 1, -1: 2}[key[3]]]


def sobolev_ref(dom, c, s=0.0):
    return math.sqrt(sum(_kabs_ref(dom, k) ** (2.0 * s) * abs(c[k]) ** 2
                         for k in sorted(c)))


def gevrey_ref(dom, c, sigma):
    return math.sqrt(sum(math.exp(2.0 * sigma * _kabs_ref(dom, k))
                         * abs(c[k]) ** 2 for k in sorted(c)))


def truncate_ref(dom, c, kappa):
    lo = {k: v for k, v in c.items() if _kabs_ref(dom, k) < kappa}
    hi = {k: v for k, v in c.items() if _kabs_ref(dom, k) >= kappa}
    return lo, hi


def add_ref(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return out


def apply_L_ref(dom, c):
    return {k: 1j * _omega_ref(dom, k) * v for k, v in c.items() if k[3]}


def apply_Linv_ref(dom, c):
    return {k: v / (1j * _omega_ref(dom, k)) for k, v in c.items() if k[3]}


def apply_Iomega_ref(dom, c):
    return {k: 1j * v / _omega_ref(dom, k) for k, v in c.items() if k[3]}


def apply_A_ref(dom, c, mu):
    return {k: mu * _kabs_ref(dom, k) ** 2 * v for k, v in c.items()}


def pairing_ref(dom, a, b):
    return dom.volume * sum((a[k] * b[k].conjugate() for k in sorted(a)
                             if k in b), 0j)


def to_vectors_ref(dom, c):
    out = {}
    for key in sorted(c):
        fr = eigenframe(WaveVector.from_ints(dom, key[:3]))
        out.setdefault(key[:3], np.zeros(3, dtype=complex))
        out[key[:3]] += c[key] * fr.X(key[3])
    return out


# -- random sparse states -------------------------------------------------------

# keys on the two special kinds of orbit: the vertical axis l' = 0 (slow
# and fast) and the horizontal plane l3 = 0
SPECIAL = [(0, 0, 1, 0), (0, 0, -2, 0), (0, 0, 1, 1), (0, 0, -2, -1),
           (1, -2, 0, 0), (0, 1, 0, 0), (1, 0, 1, -1), (-1, 1, -1, 1)]


def _all_keys(dom, kmax):
    return [(*kv.l, a) for kv in wavevectors(dom, kmax)
            for a in ((0, 1, -1) if kv.l[2] else (0,))]


def sparse_coeffs(seed, dom=DOM, kmax=3.0, frac=0.3, zeros=0.2):
    """A random key subset with Gaussian values, a share of them stored
    zeros, always including SPECIAL keys that lie on the lattice."""
    rng = np.random.default_rng(seed)
    keys = _all_keys(dom, kmax)
    pick = {keys[i] for i in np.nonzero(rng.random(len(keys)) < frac)[0]}
    pick |= set(SPECIAL) & set(keys)
    out = {}
    for k in sorted(pick):
        re, im = rng.normal(size=2)
        out[k] = 0j if rng.random() < zeros else complex(re, im)
    return out


def assert_same(state, ref, tol=TOL):
    """Same length, keys, sort order, and values to tol relative to the
    largest reference value."""
    assert len(state) == len(ref)
    assert state.keys() == sorted(ref)
    assert [k for k, _ in state.items()] == sorted(ref)
    assert list(state) == sorted(ref)
    scale = max([abs(v) for v in ref.values()] + [1e-300])
    for k, v in state.items():
        assert abs(v - ref[k]) <= tol * scale, k


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# -- the array operations against the loops ---------------------------------

class TestAgainstLoops:
    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_construction_and_mapping(self, seed):
        c = sparse_coeffs(seed)
        s = SpectralState(DOM, 3.0, c)
        assert_same(s, c, tol=0.0)
        assert 0j in c.values()  # stored zeros are present keys
        for k, v in c.items():
            assert k in s and s[k] == v and s.get(k) == v
        assert (0, 0, 3, 1) not in s or (0, 0, 3, 1) in c
        assert s.get((9, 9, 9, 0), "absent") == "absent"

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_reality(self, seed):
        c = sparse_coeffs(seed)
        s = SpectralState(DOM, 3.0, c)
        assert_same(enforce_reality(s), enforce_ref(c))
        assert close(check_reality(s), check_ref(c))
        e = enforce_ref(c)
        assert check_reality(SpectralState(DOM, 3.0, e)) <= TOL * max(
            [abs(v) for v in e.values()] + [1.0])

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_reality_bit_exact_on_full_orbits(self, seed):
        # with every slot present, the representative and the order of
        # the sum are the loop's, so the arithmetic is the same
        rng = np.random.default_rng(seed)
        c = {k: complex(*rng.normal(size=2)) for k in _all_keys(DOM, 3.0)}
        e = enforce_reality(SpectralState(DOM, 3.0, c))
        assert e.items() == sorted(enforce_ref(c).items())

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_norms_and_truncation(self, seed):
        c = sparse_coeffs(seed, dom=BOX, kmax=2.5)
        s = SpectralState(BOX, 2.5, c)
        for sexp in (0.0, 1.0, 2.0, -0.5):
            assert close(sobolev_norm(s, sexp), sobolev_ref(BOX, c, sexp))
        assert close(gevrey_norm(s, 0.7), gevrey_ref(BOX, c, 0.7))
        for kappa in (0.9, 1.5, 2.2, 9.0):
            lo, hi = truncate(s, kappa)
            want_lo, want_hi = truncate_ref(BOX, c, kappa)
            assert_same(lo, want_lo, tol=0.0)
            assert_same(hi, want_hi, tol=0.0)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_arithmetic_and_branch(self, seed):
        a, b = sparse_coeffs(seed), sparse_coeffs(seed + 1)
        sa, sb = SpectralState(DOM, 3.0, a), SpectralState(DOM, 3.0, b)
        assert_same(sa + sb, add_ref(a, b))
        assert_same(sa - sb, add_ref(a, {k: -v for k, v in b.items()}))
        for x in (2.0, -0.5j, 0.0):
            want = {k: x * v for k, v in a.items()}
            assert_same(x * sa, want)
            assert_same(sa * x, want)
        for which in (0, 1, -1, (1, -1), (0, 1)):
            ws = (which,) if isinstance(which, int) else which
            assert_same(sa.branch(which),
                        {k: v for k, v in a.items() if k[3] in ws}, tol=0.0)
        assert_same(sa.replace(coeffs=b), b, tol=0.0)
        assert_same(sa.replace(t=2.5), a, tol=0.0)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_diagonal_operators_and_pairing(self, seed):
        c = sparse_coeffs(seed, dom=BOX, kmax=2.5)
        d = sparse_coeffs(seed + 7, dom=BOX, kmax=2.5)
        s, t = SpectralState(BOX, 2.5, c), SpectralState(BOX, 2.5, d)
        assert_same(apply_L(s), apply_L_ref(BOX, c))
        assert_same(apply_Iomega(s), apply_Iomega_ref(BOX, c))
        assert_same(apply_A(s, 0.3), apply_A_ref(BOX, c, 0.3))
        fast = s.branch((1, -1))
        assert_same(apply_Linv(fast), apply_Linv_ref(BOX, c))
        assert close(pairing(s, t), pairing_ref(BOX, c, d))

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_vector_coefficients_build_no_table(self, seed):
        c = sparse_coeffs(seed, dom=BOX, kmax=3.3, frac=0.05)
        s = SpectralState(BOX, 3.3, c)
        misses = _engine._table.cache_info().misses
        got = to_vector_coefficients(s)
        slow, fast = slow_fast_split(s)
        assert _engine._table.cache_info().misses == misses
        want = to_vectors_ref(BOX, c)
        assert list(got) == list(want)
        scale = max(np.abs(v).max() for v in want.values())
        for l, v in want.items():
            assert np.abs(got[l] - v).max() <= TOL * scale, l
        assert_same(slow + fast, c, tol=0.0)

    def test_linv_names_slow_key(self):
        s = SpectralState(DOM, 2.0, {(0, 0, 1, 1): 1.0, (1, 0, 1, 0): 0.0,
                                     (1, 1, 0, 0): 2.0})
        with pytest.raises(ValueError, match=r"\(1, 1, 0, 0\)"):
            apply_Linv(s)
        # a stored slow zero is not slow content
        s = SpectralState(DOM, 2.0, {(0, 0, 1, 1): 1.0, (1, 0, 1, 0): 0.0})
        assert apply_Linv(s).keys() == [(0, 0, 1, 1)]


# -- storage rules ----------------------------------------------------------------

class TestStorage:
    def test_outside_key_named(self):
        with pytest.raises(ValueError, match=r"\(2, 1, 0, 0\).*kmax"):
            SpectralState(DOM, 2.0, {(1, 1, 1, 0): 1.0, (2, 1, 0, 0): 1.0})

    def test_malformed_key_named(self):
        with pytest.raises(ValueError, match=r"\(1, 0, 1\)"):
            SpectralState(DOM, 2.0, {(1, 0, 1, 0): 1.0, (1, 0, 1): 1.0})

    @pytest.mark.parametrize("key", [(1.5, 0, 1, 0), (1, 0, 1.0000001, 0),
                                     (1, 0, 1, 0.5), (2 ** 70, 0, 1, 0),
                                     (1, 0, 1, -2 ** 63 - 1), ("1", 0, 1, 0),
                                     (1, 0, 1), 5])
    def test_non_integer_key_is_no_key(self, key):
        s = SpectralState(DOM, 2.0, {(1, 0, 1, 0): 2.0})
        assert key not in s
        assert s.get(key, "default") == "default"
        with pytest.raises(KeyError):
            s[key]
        with pytest.raises(ValueError, match="four integers"):
            SpectralState(DOM, 2.0, {(1, 0, 1, 0): 2.0, key: 1.0})

    def test_integral_float_key_matches_as_in_a_dict(self):
        s = SpectralState(DOM, 2.0, {(1, 0, 1, 0): 2.0})
        assert (1.0, 0, 1, 0) in s and s[(1.0, 0, 1, 0)] == 2.0
        assert SpectralState(DOM, 2.0, {(1.0, 0, 1, 0): 2.0}).keys() \
            == [(1, 0, 1, 0)]

    def test_arrays_read_only(self):
        s = random_state(DOM, 2.0, 1)
        for arr in (s.array, s.mask, (2.0 * s).array, apply_B(s, s).array):
            with pytest.raises(ValueError):
                arr[0, 0] = 1

    def test_computed_results_present_where_nonzero(self):
        s = random_state(DOM, 2.0, 2)
        out = apply_B(s, s)
        want = {k for k, v in SpectralState(DOM, 2.0, dict(out.items())
                                            ).items() if v != 0}
        assert set(out.keys()) == want
        assert all(v != 0 for _, v in out.items())

    def test_absent_is_not_stored_zero(self):
        s = SpectralState(DOM, 2.0, {(1, 0, 1, 0): 0.0})
        assert len(s) == 1 and (1, 0, 1, 0) in s
        assert (-1, 0, -1, 0) not in s
        with pytest.raises(KeyError):
            s[(-1, 0, -1, 0)]
        assert len(enforce_reality(s)) == 4  # partners materialized

    def test_dense_is_the_state_array(self):
        s = random_state(DOM, 2.0, 3)
        table = _engine.mode_table(DOM, 2.0)
        assert np.array_equal(table.dense(s), s.array)
        strict = _engine.mode_table(DOM, 2.0, strict=True)
        sub = strict.dense(s)
        assert sub.shape == (3, strict.nk)
        assert np.array_equal(sub, s.array[:, table.index.rows_of(strict.ints)])


# -- the bounded caches -------------------------------------------------------------

class TestCaches:
    def test_table_cache_bounded(self):
        size = _engine.TABLE_CACHE_SIZE
        for i in range(size + 1):
            _engine.mode_table(DOM, 1.0 + 0.01 * i)
        assert _engine._table.cache_info().currsize == size
        assert _engine._table.cache_info().maxsize == size

    def test_index_cache_bounded(self):
        size = lattice.INDEX_CACHE_SIZE
        for i in range(size + 1):
            SpectralState(DOM, 1.0 + 0.01 * i, {})
        assert lattice._index.cache_info().currsize == size
        assert lattice._index.cache_info().maxsize == size

    def test_states_compatible_across_eviction(self):
        a = random_state(DOM, 2.0, 4)
        for i in range(lattice.INDEX_CACHE_SIZE + 1):
            SpectralState(DOM, 1.0 + 0.01 * i, {})
        b = random_state(DOM, 2.0, 5)
        assert a.index is not b.index
        s = a + b
        assert_same(s, add_ref(dict(a.items()), dict(b.items())))
        assert abs(pairing(a, b) - pairing_ref(DOM, dict(a.items()),
                                               dict(b.items()))) <= 1e-12
