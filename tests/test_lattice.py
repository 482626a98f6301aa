"""Lattice enumeration, norms, reality constraints, truncation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geobalance.interactions import pairing
from geobalance.lattice import (DomainSpec, SpectralState, _dot,
                                check_reality, enforce_reality, gevrey_norm,
                                random_state, sobolev_norm, truncate,
                                wavevectors)

DOM = DomainSpec()


class TestWavevectors:
    def test_unit_cube_shell(self):
        assert len(wavevectors(DOM, 1.0)) == 6

    def test_radius_two_count(self):
        # |l|^2 in {1,2,3,4}: 6 + 12 + 8 + 6 = 32 nonzero points
        assert len(wavevectors(DOM, 2.0)) == 32

    def test_below_one_empty(self):
        assert wavevectors(DOM, 0.5) == []

    def test_lexicographic_order(self):
        ls = [kv.l for kv in wavevectors(DOM, 2.0)]
        assert ls == sorted(ls)

    def test_anisotropic_axes(self):
        dom = DomainSpec(L1=4.0 * math.pi, L2=2.0 * math.pi,
                         L3=2.0 * math.pi)
        # k1 spacing is 1/2, so |k| <= 1 admits l1 in {-2..2} on the axis
        ls = {kv.l for kv in wavevectors(dom, 1.0)}
        assert (2, 0, 0) in ls and (3, 0, 0) not in ls
        assert (0, 2, 0) not in ls

    def test_zero_excluded(self):
        assert all(kv.l != (0, 0, 0) for kv in wavevectors(DOM, 3.0))


class TestStateValidation:
    def test_fast_at_l3_zero_rejected(self):
        with pytest.raises(ValueError, match="fast branch at l3=0"):
            SpectralState(DOM, 2.0, {(1, 0, 0, 1): 1.0})

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError, match="zero wavevector"):
            SpectralState(DOM, 2.0, {(0, 0, 0, 0): 1.0})

    def test_support_cutoff(self):
        with pytest.raises(ValueError, match="kmax"):
            SpectralState(DOM, 1.0, {(1, 1, 0, 0): 1.0})

    def test_bad_branch(self):
        with pytest.raises(ValueError, match="branch"):
            SpectralState(DOM, 2.0, {(1, 0, 0, 2): 1.0})

    @pytest.mark.parametrize("dom,kmax", [
        (DOM, 1e6), (DOM, math.inf), (DomainSpec(6e5, 1.0, 1.0), 3.0),
        (DomainSpec(math.inf, 1.0, 1.0), 3.0)])
    def test_lattice_too_large_refused(self, dom, kmax):
        """A cutoff or box whose lattice would span more than
        INDEX_MAX_SIDE integers on an axis is refused before anything is
        allocated."""
        with pytest.raises(ValueError, match="INDEX_MAX_SIDE"):
            SpectralState(dom, kmax)

    def test_arithmetic(self):
        a = SpectralState(DOM, 2.0, {(1, 0, 1, 0): 1.0})
        b = SpectralState(DOM, 2.0, {(1, 0, 1, 0): 1.0j, (0, 1, 0, 0): 2.0})
        s = a + b
        assert s[(1, 0, 1, 0)] == 1.0 + 1.0j
        assert (2.0 * a)[(1, 0, 1, 0)] == 2.0
        assert (a - a).get((1, 0, 1, 0)) == 0.0


class TestNorms:
    def test_single_mode_h0(self):
        s = SpectralState(DOM, 2.0, {(1, 0, 1, 0): 3.0 + 4.0j})
        assert sobolev_norm(s) == pytest.approx(5.0, abs=1e-15)

    def test_h_s_weight(self):
        s = SpectralState(DOM, 2.0, {(1, 1, 0, 0): 1.0})
        assert sobolev_norm(s, 1.0) == pytest.approx(math.sqrt(2.0),
                                                     rel=1e-15)

    def test_gevrey_sigma_zero_equals_l2(self):
        s = random_state(DOM, 2.0, 0)
        assert gevrey_norm(s, 0.0) == pytest.approx(sobolev_norm(s),
                                                    rel=1e-15)

    def test_gevrey_unit_mode(self):
        s = SpectralState(DOM, 1.0, {(0, 0, 1, 0): 1.0})
        assert gevrey_norm(s, 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_empty(self):
        s = SpectralState(DOM, 2.0, {})
        assert sobolev_norm(s) == 0.0
        assert gevrey_norm(s, 1.0) == 0.0

    def test_reverse_poincare(self):
        s = random_state(DOM, 4.0, 1)
        for kappa in (1.5, 2.5, 3.5):
            lo, _ = truncate(s, kappa)
            assert sobolev_norm(lo, 1.0) <= kappa * sobolev_norm(lo) + 1e-12


class TestReality:
    def test_slow_partner_materialized(self):
        s = SpectralState(DOM, 2.0, {(1, 0, 1, 0): 1.0})
        e = enforce_reality(s)
        assert e[(-1, 0, -1, 0)] == pytest.approx(-1.0)

    def test_consistent_state_unchanged(self):
        e = enforce_reality(random_state(DOM, 2.0, 2))
        assert check_reality(e) <= 1e-14

    def test_inconsistent_pair_halved(self):
        s = SpectralState(DOM, 2.0, {(1, 0, 1, 1): 1.0j,
                                     (-1, 0, -1, 1): 0.0})
        e = enforce_reality(s)
        assert e[(1, 0, 1, 1)] == pytest.approx(0.5j)
        assert e[(-1, 0, -1, 1)] == pytest.approx(-0.5j)
        assert check_reality(e) <= 1e-15

    def test_fast_l3_flip_swaps_branch(self):
        s = SpectralState(DOM, 3.0, {(1, 2, 1, 1): 0.7 - 0.2j})
        e = enforce_reality(s)
        assert e[(1, 2, -1, -1)] == pytest.approx(-(0.7 - 0.2j))
        assert e[(-1, -2, -1, 1)] == pytest.approx(0.7 + 0.2j)
        assert e[(-1, -2, 1, -1)] == pytest.approx(-(0.7 + 0.2j))

    def test_vertical_fast_orbit(self):
        s = SpectralState(DOM, 2.0, {(0, 0, 2, 1): 1.0 + 1.0j})
        e = enforce_reality(s)
        assert e[(0, 0, -2, 1)] == pytest.approx(1.0 + 1.0j)
        assert e[(0, 0, 2, -1)] == pytest.approx(1.0 - 1.0j)
        assert e[(0, 0, -2, -1)] == pytest.approx(1.0 - 1.0j)

    def test_vertical_slow_is_imaginary(self):
        s = SpectralState(DOM, 2.0, {(0, 0, 1, 0): 1.0 + 2.0j})
        e = enforce_reality(s)
        assert abs(e[(0, 0, 1, 0)].real) <= 1e-15

    def test_check_counts_missing_as_zero(self):
        s = SpectralState(DOM, 2.0, {(1, 0, 1, 0): 1.0})
        assert check_reality(s) > 0.1

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_projection_idempotent(self, seed):
        s = random_state(DOM, 2.0, seed)
        e = enforce_reality(s)
        assert check_reality(e) <= 1e-13
        e2 = enforce_reality(e)
        assert max(abs(e2[k] - e[k]) for k in e) <= 1e-15


class TestRandomState:
    def test_seed_kinds_draw_alike(self):
        """None, int, numpy integer and Generator seeds all go through
        default_rng; a Generator is used as it is."""
        want = random_state(DOM, 2.0, 3).array
        for seed in (np.int64(3), np.uint8(3), np.random.default_rng(3)):
            assert np.array_equal(random_state(DOM, 2.0, seed).array, want)
        g = np.random.default_rng(5)
        first = random_state(DOM, 2.0, g).array
        assert not np.array_equal(random_state(DOM, 2.0, g).array, first)
        assert random_state(DOM, 2.0).array.any()


class TestTruncate:
    def test_kappa_above_cutoff(self):
        s = random_state(DOM, 2.0, 3)
        lo, hi = truncate(s, 5.0)
        assert len(hi) == 0 and len(lo) == len(s)

    def test_shell_membership(self):
        s = random_state(DOM, 2.0, 4)
        lo, hi = truncate(s, 1.5)
        assert all(DOM.wavevector(*k[:3]).kabs < 1.5 for k in lo)
        assert all(DOM.wavevector(*k[:3]).kabs >= 1.5 for k in hi)

    def test_kappa_at_most_one_empties_low(self):
        s = random_state(DOM, 2.0, 5)
        lo, hi = truncate(s, 1.0)
        assert len(lo) == 0 and len(hi) == len(s)

    def test_exact_reassembly(self):
        s = random_state(DOM, 3.0, 6)
        lo, hi = truncate(s, 2.2)
        back = lo + hi
        assert all(back[k] == s[k] for k in s)

    def test_gevrey_tail_bound(self):
        # |w_k| = e^{-sigma |k|} implies a tail bounded by the envelope
        sigma, s_exp = 0.7, 1.0
        c = {(*kv.l, 0): math.exp(-sigma * kv.kabs)
             for kv in wavevectors(DOM, 6.0)}
        state = SpectralState(DOM, 6.0, c)
        g = gevrey_norm(state, sigma)
        for kappa in (2.0, 3.0, 4.0):
            _, hi = truncate(state, kappa)
            tail = sobolev_norm(hi, s_exp)
            env = kappa ** s_exp * math.exp(-sigma * kappa) * g
            assert tail <= 1.1 * env


def _products(a, b, weight=None, imag=False):
    """The float products weight_k (Re a Re b + Im a Im b), or with
    ``imag`` Im a Re b - Re a Im b, of every lattice slot, built key by
    key (labels -1, 0, 1 per wavevector); an absent slot counts as 0.0."""
    out = []
    for n, l in enumerate(a.index.ints.tolist()):
        wk = 1.0 if weight is None else float(weight[n])
        for label in (-1, 0, 1):
            x, y = a.get((*l, label), 0j), b.get((*l, label), 0j)
            out.append(wk * (x.imag * y.real - x.real * y.imag if imag
                             else x.real * y.real + x.imag * y.imag))
    return out


BOXES = (DOM, DomainSpec(2.0 * math.pi, 4.0, 3.0))
reductions = st.fixed_dictionaries({
    "box": st.sampled_from(BOXES),
    "kmax": st.sampled_from([1.5, 2.0, 3.0]),
    "seeds": st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)),
    "scale": st.sampled_from([1e-3, 1.0, 1e3]),
    "branches": st.sampled_from([(0, 1, -1), (0,), (1, -1), (1,)]),
})


def _pair_of_states(d):
    a = random_state(d["box"], d["kmax"], d["seeds"][0], scale=d["scale"])
    b = random_state(d["box"], d["kmax"], d["seeds"][1])
    return a.branch(d["branches"]), b


class TestReduction:
    """Every norm and pairing is numpy's pairwise sum of float products
    taken in key order: no complex product sets a bit, and no libm call
    but the weights'."""

    @settings(max_examples=25, deadline=None)
    @given(reductions)
    def test_equals_sum_of_float_products(self, d):
        a, b = _pair_of_states(d)
        kabs = a.index.kabs
        for s in (0.0, 1.0, -0.5, 2.0):
            want = np.sum(_products(a, a, np.float_power(kabs, 2.0 * s)))
            assert sobolev_norm(a, s) == math.sqrt(want)
        gw = [math.exp(x) for x in (2.0 * 0.5 * kabs).tolist()]
        assert gevrey_norm(a, 0.5) == math.sqrt(np.sum(_products(a, a, gw)))
        want = complex(np.sum(_products(a, b)),
                       np.sum(_products(a, b, imag=True)))
        assert pairing(a, b) == a.domain.volume * want

    @settings(max_examples=25, deadline=None)
    @given(reductions)
    def test_pairwise_error_bound(self, d):
        a, b = _pair_of_states(d)
        kabs = a.index.kabs
        for y, wt, imag in ((a, np.float_power(kabs, 2.0), False),
                            (a, np.exp(kabs), False), (b, None, False),
                            (b, None, True)):
            terms = _products(a, y, wt, imag)
            # pairing's imaginary part: Re sum a conj(i b)
            other = 1j * y.array if imag else y.array
            got = _dot(a.array, other, 1.0 if wt is None else wt)
            exact = sum(map(Fraction, terms), Fraction(0))
            n = len(terms)
            bound = ((math.ceil(math.log2(n)) + 2) * 2.0 ** -53
                     * sum(map(abs, terms)))
            assert abs(Fraction(got) - exact) <= Fraction(bound)
