"""Triad classification, exact-resonance detection, casewise bounds."""

import csv
import math

import numpy as np
import pytest

from geobalance import _engine, resonance
from geobalance._engine import exact_resonance, mode_table
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


class TestValidation:
    """scan_csv and enumerate_triads refuse what audit refuses."""

    @pytest.mark.parametrize("kmax", [math.nan, math.inf, -math.inf])
    def test_kmax_must_be_finite(self, tmp_path, kmax):
        with pytest.raises(ValueError, match="kmax"):
            scan_csv(DOM, kmax, tmp_path / "scan.csv")
        with pytest.raises(ValueError, match="kmax"):
            enumerate_triads(DOM, kmax)
        with pytest.raises(ValueError, match="kmax"):
            audit(DOM, kmax)

    @pytest.mark.parametrize("theta0", [1.5, math.nan, 0.0, 1.0, -0.5])
    def test_theta0_inside_unit_interval(self, tmp_path, theta0):
        with pytest.raises(ValueError, match="theta0"):
            scan_csv(DOM, 2.5, tmp_path / "scan.csv", theta0)
        with pytest.raises(ValueError, match="theta0"):
            enumerate_triads(DOM, 2.5, theta0)

    @pytest.mark.parametrize("kmax", [0.5, 0.0, -3.0])
    def test_small_kmax_gives_an_empty_scan(self, tmp_path, kmax):
        p = tmp_path / "scan.csv"
        assert scan_csv(DOM, kmax, p) == 0
        assert len(p.read_text().splitlines()) == 3
        assert list(enumerate_triads(DOM, kmax)) == []


def _scan_bytes(path, kmax=2.5):
    scan_csv(DOM, kmax, path)
    return path.read_bytes()


class TestBlocks:
    """Triads come in blocks of whole j rows; where the blocks end changes
    no output."""

    @pytest.mark.parametrize("block, n_blocks", [(1, "rows"), (10 ** 9, 1)])
    def test_block_size_changes_nothing(self, tmp_path, monkeypatch, block,
                                        n_blocks):
        want_csv = _scan_bytes(tmp_path / "want.csv")
        want_audit = audit(DOM, 2.5)
        monkeypatch.setattr(_engine, "TRIAD_BLOCK", block)
        table = mode_table(DOM, 2.5)
        J = np.nonzero(table.fast_ok)[0]
        assert len(list(table.fast_fast_slow_blocks(J, J))) == (
            len(J) if n_blocks == "rows" else n_blocks)
        assert _scan_bytes(tmp_path / "got.csv") == want_csv
        assert audit(DOM, 2.5) == want_audit

    def test_argmax_ties_go_to_the_earlier_row(self, monkeypatch):
        """Equal top ratios in two j rows of one block: argmax names the
        earlier row, though the later one holds the lower (r, s)."""
        table = mode_table(DOM, 2.5)
        blocks = list(resonance._blocks(table, 0.5))
        b = blocks[0]
        nr = ~b.res
        first = int(np.argmax(nr[3]))  # (-,-) in the earlier row
        second = int(np.argmax(nr[0] & (b.J > b.J[first])))  # (+,+) later
        coeff_sum, scale = b.coeff_sum.copy(), b.scale.copy()
        for q, m in ((3, first), (0, second)):
            coeff_sum[q, m], scale[q, m] = 1e6, 1.0
        blocks[0] = b._replace(coeff_sum=coeff_sum, scale=scale)
        monkeypatch.setattr(resonance, "_blocks", lambda *args: blocks)
        rep = audit(DOM, 2.5)
        assert rep.max_ratio == 1e6
        assert rep.argmax == (tuple(table.ints[b.J[first]].tolist()), -1,
                              tuple(table.ints[b.K[first]].tolist()), -1)

    def test_csv_rows_are_the_records(self, tmp_path):
        """scan_csv formats its blocks itself; row for row, it writes the
        records of enumerate_triads: integers and case exactly, floats as
        17-digit text."""
        p = tmp_path / "scan.csv"
        n = scan_csv(DOM, 2.5, p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(row for row in fh
                                   if not row.startswith("#")))
        assert rows[0][:4] == ["j1", "j2", "j3", "r"]
        recs = list(enumerate_triads(DOM, 2.5))
        assert n == len(rows) - 1 == len(recs) == 5880
        for row, rec in zip(rows[1:], recs):
            want = [*rec.j, rec.r, *rec.k, rec.s, *rec.l]
            assert [int(x) for x in row[:11]] == want, row
            assert row[11] == rec.case, row
            assert row[12:] == [f"{x:.17g}" for x in (
                rec.omega_sum, abs(rec.coeff_sum), rec.bound, rec.ratio)], row
