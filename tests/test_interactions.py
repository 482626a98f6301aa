"""Triad coefficients and the convolution, against closed-form and
physical-space oracles."""

import math

import numpy as np
import pytest

from geobalance import _engine
from geobalance.interactions import (apply_B, apply_B_fast, apply_B_slow,
                                     apply_Bomega, coeff, coeff_bounds,
                                     dump_coeffs_csv, pairing)
from geobalance.lattice import (DomainSpec, SpectralState, random_state,
                                sobolev_norm, wavevectors)

DOM = DomainSpec()
VOL = DOM.volume
RNG = np.random.default_rng(20240817)


def _norm(v):
    return math.sqrt(sum(x * x for x in v))


def _wedge(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _slow_slow_fast_oracle(j, k, l, s):
    """|M|-free closed form for the slow-slow -> fast coefficient.

    First factor (k' wedge j')/|j|; second factor is the projection of the
    slow eigenvector at k onto the fast branch s at l.
    """
    jn, kn, ln = _norm(j), _norm(k), _norm(l)
    jp, kp, lp = j[:2], k[:2], l[:2]
    lpn = math.hypot(*lp)
    first = _wedge(kp, jp) / jn
    if lpn == 0.0:
        second = (k[1] - 1j * s * k[0]) / (math.sqrt(2.0) * kn)
    else:
        second = ((k[2] * lpn ** 2 - np.dot(kp, lp) * l[2]
                   - 1j * s * _wedge(lp, kp) * ln)
                  / (math.sqrt(2.0) * kn * ln * lpn))
    return 1j * first * second


def _fast_fast_slow_second_factor(k, s, l):
    """Projection of fast branch s at k onto the slow vector at l."""
    kn, ln = _norm(k), _norm(l)
    kp, lp = k[:2], l[:2]
    kpn, lpn = math.hypot(*kp), math.hypot(*lp)
    if k[2] == 0 or (kpn == 0 and lpn == 0):
        return 0.0
    if kpn == 0:
        return (l[1] + 1j * s * l[0]) / (math.sqrt(2.0) * ln)
    if lpn == 0:
        return math.copysign(1.0, l[2]) * kpn / (math.sqrt(2.0) * kn)
    return ((-np.dot(kp, lp) * k[2] + 1j * s * _wedge(kp, lp) * kn
             + kpn ** 2 * l[2]) / (math.sqrt(2.0) * kn * kpn * ln))


def _triads(kmax, count, need_fast_l=False, seed=1):
    rng = np.random.default_rng(seed)
    kvs = [kv.l for kv in wavevectors(DOM, kmax)]
    out = []
    while len(out) < count:
        j = kvs[rng.integers(len(kvs))]
        k = kvs[rng.integers(len(kvs))]
        l = tuple(a + b for a, b in zip(j, k))
        if l == (0, 0, 0) or _norm(l) > kmax:
            continue
        if need_fast_l and l[2] == 0:
            continue
        out.append((j, k, l))
    return out


class TestCoefficient:
    def test_zero_unless_triad_closes(self):
        assert coeff(DOM, (1, 0, 0), 0, (0, 1, 0), 0, (1, 1, 1), 0) == 0.0

    def test_zero_at_zero_output(self):
        assert coeff(DOM, (1, 0, 1), 0, (-1, 0, -1), 0, (0, 0, 0), 0) == 0.0

    def test_fast_labels_need_k3(self):
        assert coeff(DOM, (1, 1, 0), 1, (0, 0, 1), 0, (1, 1, 1), 0) == 0.0
        assert coeff(DOM, (1, 1, 1), 0, (1, 0, 0), -1, (2, 1, 1), 0) == 0.0
        assert coeff(DOM, (1, 1, 1), 0, (1, 0, -1), 0, (2, 1, 0), 1) == 0.0

    def test_slow_slow_fast_closed_form(self):
        for j, k, l in _triads(4.0, 60, need_fast_l=True, seed=2):
            for s in (1, -1):
                got = coeff(DOM, j, 0, k, 0, l, s)
                want = _slow_slow_fast_oracle(
                    np.array(j, float), np.array(k, float),
                    np.array(l, float), s)
                assert got == pytest.approx(want, abs=1e-13), (j, k, l, s)

    def test_fast_fast_slow_second_factor(self):
        # isolate the projection factor by dividing out the advection dot
        from geobalance.modes import advection_vector
        for j, k, l in _triads(4.0, 60, seed=3):
            if j[2] == 0 or k[2] == 0:
                continue
            for r in (1, -1):
                for s in (1, -1):
                    adv = advection_vector(DOM.wavevector(*j), r)
                    dot = complex(np.dot(adv, DOM.wavevector(*k).k))
                    if abs(dot) < 1e-12:
                        continue
                    got = coeff(DOM, j, r, k, s, l, 0) / (1j * dot)
                    want = _fast_fast_slow_second_factor(
                        np.array(k, float), s, np.array(l, float))
                    assert got == pytest.approx(want, abs=1e-12)

    def test_bounds_dominate(self):
        for j, k, l in _triads(3.0, 80, seed=4):
            if l[2] != 0:
                for s in (1, -1):
                    c = abs(coeff(DOM, j, 0, k, 0, l, s)) * VOL
                    assert c <= coeff_bounds(DOM, j, k, l, "00s") + 1e-10
            if j[2] != 0 and k[2] != 0:
                for r in (1, -1):
                    for s in (1, -1):
                        c = abs(coeff(DOM, j, r, k, s, l, 0)) * VOL
                        assert c <= coeff_bounds(DOM, j, k, l, "rs0") + 1e-10

    def test_bound_case_validation(self):
        with pytest.raises(ValueError, match="case"):
            coeff_bounds(DOM, (1, 0, 1), (0, 1, 1), (1, 1, 2), "xx")


class TestApplyB:
    def test_direct_equals_grid(self):
        a = random_state(DOM, 4.0, 21)
        b = random_state(DOM, 4.0, 22)
        d = apply_B(a, b, method="direct")
        g = apply_B(a, b, method="grid")
        num = sobolev_norm(d - g)
        assert num / sobolev_norm(d) <= 1e-12

    def test_energy_conservation(self):
        w = random_state(DOM, 3.0, 23)
        wh = random_state(DOM, 3.0, 24)
        ip = pairing(apply_B(wh, w), w)
        scale = VOL * sobolev_norm(wh, 1.0) * sobolev_norm(w) ** 2
        assert abs(ip.real) <= 1e-12 * scale

    def test_rotating_frame_phases(self):
        # rotated-frame convolution at time t equals lab-frame computation
        w = random_state(DOM, 2.0, 25)
        wh = random_state(DOM, 2.0, 26)
        t, eps = 0.37, 0.05
        from geobalance._engine import mode_table
        table = mode_table(DOM, 2.0)
        E = table.phase(t, eps)
        lab = table.conv_direct(E * table.dense(w), E * table.dense(wh))
        rot = table.dense(apply_B(w, wh, frame_time=(t, eps)))
        assert np.abs(lab - E * rot).max() <= 1e-12

    def test_slow_fast_projections(self):
        a = random_state(DOM, 3.0, 27)
        full = apply_B(a, a)
        slow = apply_B_slow(a, a)
        fast = apply_B_fast(a, a)
        assert all(k[3] == 0 for k in slow)
        assert all(k[3] != 0 for k in fast)
        back = slow + fast
        assert max(abs(back[k] - full[k]) for k in full) <= 1e-14

    def test_zonal_slow_state_is_steady(self):
        # purely horizontal slow shear: B(W, W) vanishes
        s = SpectralState(DOM, 2.0, {(0, 1, 0, 0): 1.0j, (0, -1, 0, 0): 1.0j})
        out = apply_B(s, s)
        assert max((abs(v) for _, v in out.items()), default=0.0) <= 1e-15


class TestApplyBomega:
    def test_rejects_slow_input(self):
        s = random_state(DOM, 2.0, 28)
        with pytest.raises(ValueError, match="slow"):
            apply_Bomega(s, s.branch((1, -1)))

    def test_output_slow_and_weighted(self):
        we = random_state(DOM, 2.0, 29).branch((1, -1))
        out = apply_Bomega(we, we)
        assert all(k[3] == 0 for k in out)

    def test_single_pair_hand_value(self):
        # one (j,+),(k,+) pair; expected value assembled from coeff and
        # the frequency sum by the definition of the weighted operator
        j, k = (1, 0, 1), (0, 1, 1)
        l = (1, 1, 2)
        we = SpectralState(DOM, 3.0, {(*j, 1): 2.0})
        wh = SpectralState(DOM, 3.0, {(*k, 1): 3.0})
        from geobalance.modes import frequencies
        wsum = (frequencies(DOM.wavevector(*j))[1]
                + frequencies(DOM.wavevector(*k))[1])
        csum = (coeff(DOM, j, 1, k, 1, l, 0) + coeff(DOM, k, 1, j, 1, l, 0))
        want = 0.5j * csum / wsum * 6.0
        out = apply_Bomega(we, wh)
        assert out[(*l, 0)] == pytest.approx(want, rel=1e-13)

    def test_exact_resonances_omitted(self):
        # opposite vertical branches are exactly resonant: primed sum empty
        we = SpectralState(DOM, 3.0, {(0, 0, 1, 1): 1.0})
        wh = SpectralState(DOM, 3.0, {(1, 1, -1, -1): 1.0})
        # (0,0,1,+) and (0,0,-1,-) resonate; use a pair that does
        wa = SpectralState(DOM, 3.0, {(0, 0, 1, 1): 1.0})
        wb = SpectralState(DOM, 3.0, {(0, 0, -2, -1): 2.0})
        out = apply_Bomega(wa, wb)
        assert len(out) == 0  # a' triads carry zero coefficient anyway


def _bomega_loop(We, Whate, frame_time=None):
    """Brute-force apply_Bomega over every input pair, by the scalar
    coefficient and resonance oracles; returns (values, sums of the
    magnitudes of the terms) per output key."""
    from geobalance._engine import exact_resonance
    from geobalance.modes import frequencies
    dom = We.domain
    out, mag = {}, {}
    for (*j, r), wj in We.items():
        for (*k, s), wk in Whate.items():
            l = tuple(a + b for a, b in zip(j, k))
            if l == (0, 0, 0) \
                    or dom.wavevector(*l).kabs > We.kmax * (1 + 1e-12):
                continue
            if exact_resonance(dom, j, r, k, s):
                continue
            csum = coeff(dom, j, r, k, s, l, 0) + coeff(dom, k, s, j, r, l, 0)
            if csum == 0.0:
                continue
            wsum = (frequencies(dom.wavevector(*j))[1 if r == 1 else 2]
                    + frequencies(dom.wavevector(*k))[1 if s == 1 else 2])
            term = 0.5j * csum / wsum * wj * wk
            if frame_time is not None:
                t, eps = frame_time
                term *= np.exp(-1j * wsum * t / eps)
            out[(*l, 0)] = out.get((*l, 0), 0.0j) + term
            mag[(*l, 0)] = mag.get((*l, 0), 0.0) + abs(term)
    return out, mag


def _assert_matches_loop(we, wh, frame_time=None):
    got = apply_Bomega(we, wh, frame_time=frame_time)
    want, mag = _bomega_loop(we, wh, frame_time)
    assert set(got.keys()) == set(want)
    for key, v in want.items():
        # relative to the summed term magnitudes, since a key's terms can
        # cancel
        assert abs(got[key] - v) <= 1e-13 * mag[key], key
    return want


class TestFrameTime:
    """``frame_time = (t, eps)`` gives the phases exp(-i omega t / eps):
    both operators refuse a t that is not finite and an eps that is not
    finite and > 0, through the check of ``ModeTable.phase``."""

    BAD = [((0.3, math.nan), "eps"), ((0.3, math.inf), "eps"),
           ((0.3, 0.0), "eps"), ((0.3, -0.1), "eps"),
           ((math.inf, 0.1), "t"), ((math.nan, 0.1), "t")]

    @pytest.mark.parametrize("frame_time, name", BAD)
    def test_apply_B(self, frame_time, name):
        w = random_state(DOM, 2.0, 30)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            apply_B(w, w, frame_time=frame_time)

    @pytest.mark.parametrize("frame_time, name", BAD)
    def test_apply_Bomega(self, frame_time, name):
        we = random_state(DOM, 2.0, 31).branch((1, -1))
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            apply_Bomega(we, we, frame_time=frame_time)


class TestApplyBomegaAgainstLoop:
    @pytest.mark.parametrize("dom,kmax", [
        (DOM, 2.0), (DOM, 3.0), (DomainSpec(2 * math.pi, 4.0, 3.0), 2.5)])
    @pytest.mark.parametrize("frame_time", [None, (0.37, 0.05)])
    def test_matches_pair_loop(self, dom, kmax, frame_time):
        for seed in (51, 52):
            we = random_state(dom, kmax, seed).branch((1, -1))
            wh = random_state(dom, kmax, seed + 10).branch((1, -1))
            assert _assert_matches_loop(we, wh, frame_time)

    @pytest.mark.parametrize("block", [1, 10 ** 9])
    def test_block_size_changes_no_bit(self, monkeypatch, block):
        """One j row per triad block, or the whole table in one, gives the
        bits of the default blocks: each l still sums its pairs in j
        order, and no product changes bits with the size of its arrays."""
        we = random_state(DOM, 4.0, 51).branch((1, -1))
        wh = random_state(DOM, 4.0, 61).branch((1, -1))
        want = apply_Bomega(we, wh, frame_time=(0.37, 0.05))
        monkeypatch.setattr(_engine, "TRIAD_BLOCK", block)
        got = apply_Bomega(we, wh, frame_time=(0.37, 0.05))
        assert np.array_equal(got.array, want.array)
        assert np.array_equal(got.mask, want.mask)

    def test_sparse_inputs_keep_key_rule(self):
        # stored zeros count as present: a pair with a zero input still
        # puts its key in the output
        we = SpectralState(DOM, 3.0, {(1, 0, 1, 1): 2.0, (0, 0, 1, 1): 0.0,
                                      (0, 1, -1, -1): 1.5j})
        wh = SpectralState(DOM, 3.0, {(0, 1, 1, 1): 3.0, (0, 0, -2, -1): 1.0,
                                      (1, 1, -1, 1): 0.0})
        want = _assert_matches_loop(we, wh)
        assert 0.0 in want.values()


class TestDump:
    def test_csv_rows(self, tmp_path):
        p = tmp_path / "coeffs.csv"
        n = dump_coeffs_csv(DOM, 2.0, p)
        lines = p.read_text().splitlines()
        assert lines[2].startswith("j1,")
        assert n == len(lines) - 3
        assert n > 0
