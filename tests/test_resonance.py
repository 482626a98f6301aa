"""Triad classification, exact-resonance detection, casewise bounds."""

import math

import numpy as np
import pytest

from geobalance._engine import exact_resonance
from geobalance.interactions import coeff
from geobalance.lattice import DomainSpec, wavevectors
from geobalance.modes import frequencies
from geobalance.resonance import (TriadRecord, audit, casewise_bound,
                                  classify, enumerate_triads, scan_csv,
                                  triad_record)

DOM = DomainSpec()
VOL = DOM.volume


class TestExactResonance:
    def test_vertical_pair(self):
        assert exact_resonance(DOM, (0, 0, 2), 1, (0, 0, -3), -1)
        assert not exact_resonance(DOM, (0, 0, 2), 1, (0, 0, -3), 1)

    def test_one_vertical_never(self):
        # |omega| = 1 on the axis, > 1 off it
        assert not exact_resonance(DOM, (0, 0, 1), 1, (1, 1, 1), -1)
        assert not exact_resonance(DOM, (0, 0, 1), -1, (2, 0, -1), 1)

    def test_same_cone_integer_identity(self):
        # |j|/|j3| = |k|/|k3| with opposite signed frequencies
        j, k = (1, 1, 1), (-1, 1, -1)
        wj = frequencies(DOM.wavevector(*j))
        wk = frequencies(DOM.wavevector(*k))
        assert wj[1] + wk[1] == pytest.approx(0.0, abs=1e-15)
        assert exact_resonance(DOM, j, 1, k, 1)
        assert not exact_resonance(DOM, j, 1, k, -1)

    def test_scaled_cone(self):
        assert exact_resonance(DOM, (1, 1, 1), 1, (-2, 2, -2), 1)

    def test_off_cone(self):
        assert not exact_resonance(DOM, (1, 0, 1), 1, (1, 1, -1), 1)

    def test_matches_float_check_exhaustively(self):
        kvs = [kv.l for kv in wavevectors(DOM, 3.0) if kv.l[2] != 0]
        for j in kvs:
            wj = frequencies(DOM.wavevector(*j))
            for k in kvs:
                wk = frequencies(DOM.wavevector(*k))
                for r in (1, -1):
                    for s in (1, -1):
                        close = abs(wj[r == -1 and 2 or 1]
                                    + wk[s == -1 and 2 or 1]) < 1e-9
                        assert exact_resonance(DOM, j, r, k, s) == close


class TestClassify:
    def test_both_vertical(self):
        rec = triad_record(DOM, (0, 0, 1), 1, (0, 0, 2), -1)
        assert rec.case == "a'"
        assert rec.bound == 0.0

    def test_exact_resonance_case(self):
        rec = triad_record(DOM, (1, 1, 1), 1, (-1, 1, -1), 1)
        assert rec.case == "b'"
        assert abs(rec.coeff_sum) <= 1e-12 * VOL * 3.0

    def test_one_vertical(self):
        rec = triad_record(DOM, (0, 0, 1), 1, (1, 1, 1), 1)
        assert rec.case == "c"

    def test_horizontal_output(self):
        rec = triad_record(DOM, (1, 0, 1), 1, (-1, 0, 1), 1)
        assert rec.case == "b"

    def test_generic(self):
        rec = triad_record(DOM, (1, 0, 1), 1, (1, 1, 1), 1)
        assert rec.case == "a"
        assert abs(rec.coeff_sum) <= rec.bound

    def test_coeff_sum_assembly(self):
        j, k = (1, 0, 1), (0, 1, 2)
        l = (1, 1, 3)
        rec = triad_record(DOM, j, 1, k, -1)
        want = VOL * (coeff(DOM, j, 1, k, -1, l, 0)
                      + coeff(DOM, k, -1, j, 1, l, 0))
        assert rec.coeff_sum == pytest.approx(want, rel=1e-13)


class TestAudit:
    def test_kmax4_clean(self):
        rep = audit(DOM, 4.0, 0.5)
        assert rep.n_bound_violations == 0
        assert rep.max_resonant_residual <= 1e-12
        assert rep.n_triads > 10000
        assert rep.empirical_cnr == rep.max_ratio_near
        assert rep.max_ratio_near <= rep.max_ratio

    def test_enumeration_matches_brute_force(self):
        kvs = [kv.l for kv in wavevectors(DOM, 2.0) if kv.l[2] != 0]
        brute = 0
        for j in kvs:
            for k in kvs:
                l = tuple(a + b for a, b in zip(j, k))
                if l == (0, 0, 0):
                    continue
                if math.sqrt(sum(x * x for x in l)) > 2.0 * (1 + 1e-12):
                    continue
                brute += 4  # (r, s) branch combinations
        recs = list(enumerate_triads(DOM, 2.0, 0.5))
        assert len(recs) == brute

    def test_enumeration_matches_scalar_records(self):
        """Every vectorized record equals the scalar path's: case and theta
        exactly (theta = +-inf on omega_j = omega_k, with the sign of the
        omega sum), the floats to 1e-12 relative."""
        n = 0
        for rec in enumerate_triads(DOM, 2.5, 0.5):
            ref = triad_record(DOM, rec.j, rec.r, rec.k, rec.s, 0.5)
            assert (rec.l, rec.case, rec.theta) == (ref.l, ref.case,
                                                    ref.theta), rec
            for a, b in ((rec.omega_sum, ref.omega_sum),
                         (abs(rec.coeff_sum), abs(ref.coeff_sum)),
                         (rec.bound, ref.bound), (rec.ratio, ref.ratio),
                         (rec.weight, ref.weight)):
                assert abs(a - b) <= 1e-12 * abs(b), rec
            n += 1
        assert n == 5880

    def test_summary_text(self):
        rep = audit(DOM, 3.0, 0.5)
        text = rep.summary()
        assert "c_nr" in text and "violations" in text

    def test_scan_csv(self, tmp_path):
        p = tmp_path / "scan.csv"
        n = scan_csv(DOM, 2.0, p)
        lines = p.read_text().splitlines()
        assert n == len(lines) - 3
        assert lines[2].startswith("j1,")

    def test_theta0_validation(self):
        with pytest.raises(ValueError, match="theta0"):
            audit(DOM, 3.0, 1.5)


class TestBounds:
    def test_bound_scales_with_omega_sum(self):
        rec = triad_record(DOM, (1, 0, 1), 1, (1, 1, 1), 1)
        assert rec.bound == pytest.approx(
            casewise_bound(rec, 0.5, DOM), rel=1e-13)

    def test_near_cone_uses_near_constant(self):
        # theta = omega_sum / (omega_j - omega_k); small for ++ pairs on
        # nearby cones, so the case-a near constant applies
        rec = triad_record(DOM, (1, 1, 2), 1, (-1, 1, -2), 1)
        if rec.case == "a" and rec.theta is not None \
                and abs(rec.theta) <= 0.5:
            jn = DOM.wavevector(1, 1, 2).kabs
            kn = DOM.wavevector(-1, 1, -2).kabs
            ln = DOM.wavevector(0, 2, 0).kabs
            const = 0.5 * VOL * (4.0 + 6.0 / (1.0 - 0.25))
            want = const * jn * kn / ln * abs(rec.omega_sum)
            assert rec.bound == pytest.approx(want, rel=1e-12)
