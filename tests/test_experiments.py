"""Toy relaxation model, scaling scans and the spectral-tail check."""

import math

import numpy as np
import pytest

from geobalance.dynamics import ForcingSpec
from geobalance.experiments import (ScanReport, balance_scan, default_domain,
                                    default_forcing, gevrey_tail_check,
                                    manifold_scan, oscillation_dt, toy_model)
from geobalance.lattice import (DomainSpec, SpectralState, enforce_reality,
                                sobolev_norm)

DOM = DomainSpec()


class TestToyModel:
    def test_fixed_point_is_exact(self):
        eps, mu, f = 0.1, 1.0, 1.0 + 0.5j
        U = eps * f / (eps * mu + 1j)
        traj = toy_model(eps, mu, f, T=5.0, dt=0.01, x0=U)
        assert traj.dist.max() <= 1e-14

    def test_closed_form_decay(self):
        eps, mu, f = 0.1, 1.0, 1.0
        traj = toy_model(eps, mu, f, T=3.0, dt=0.05, x0=0.0)
        U = abs(traj.slow_point)
        want = U * np.exp(-mu * traj.times)
        assert np.abs(traj.dist - want).max() <= 1e-12

    def test_slow_point_slope_one(self):
        mu, f = 1.0, 1.0
        epss = np.array([0.1, 0.05, 0.025, 0.0125])
        mags = [abs(toy_model(e, mu, f, 1.0, 0.1).slow_point) for e in epss]
        slope = np.polyfit(np.log(epss), np.log(mags), 1)[0]
        assert abs(slope - 1.0) <= 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            toy_model(0.0, 1.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            toy_model(0.1, 1.0, 1.0, 1.0, -0.1)

    @pytest.mark.parametrize("T, dt", [(1.0, 0.3), (1.0, 0.4), (0.1, 0.3)])
    def test_partial_last_step_refused(self, T, dt):
        """T = 1 by dt 0.3 or 0.4 would end at 0.9 or 0.8, and T = 0.1 by
        dt 0.3 would take no step, rather than reach T."""
        with pytest.raises(ValueError, match="whole number of steps"):
            toy_model(0.1, 0.5, 1, T=T, dt=dt)

    def test_float_noise_is_whole_steps(self):
        # in floats 0.3 / 0.1 = 2.9999999999999996: still 3 steps
        traj = toy_model(0.1, 0.5, 1, T=0.3, dt=0.1)
        assert len(traj.times) == 4

    def test_csv(self, tmp_path):
        traj = toy_model(0.1, 1.0, 1.0, 0.5, 0.1)
        p = tmp_path / "toy.csv"
        traj.to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# slow_point")
        assert lines[1] == "t,re_x,im_x,dist"
        assert len(lines) == 2 + len(traj.times)


class TestForcingAndStep:
    def test_default_forcing_normalization(self):
        f = default_forcing(DOM, kmax=4.0)
        slow = f.coeffs.branch(0)
        fast = f.coeffs.branch((1, -1))
        assert sobolev_norm(slow, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert sobolev_norm(fast, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert f.steady and f.ageostrophic
        assert all(DOM.wavevector(*k[:3]).kabs <= 2.0 for k in f.coeffs)

    def test_default_forcing_deterministic(self):
        a = default_forcing(DOM, kmax=4.0, seed=123)
        b = default_forcing(DOM, kmax=4.0, seed=123)
        assert all(a.coeffs[k] == b.coeffs[k] for k in a.coeffs)

    def test_oscillation_dt(self):
        # fastest retained phase at kmax=2 is omega = sqrt(3) at (1,1,1)
        dt = oscillation_dt(DOM, 2.0, 0.1, oversample=8)
        assert dt == pytest.approx(2.0 * math.pi * 0.1
                                   / (8.0 * math.sqrt(3.0)), rel=1e-13)


class TestScanReport:
    def test_fit_skips_unconverged(self):
        rep = ScanReport(kind="x", eps_values=[1.0, 2.0, 4.0],
                         columns=("eps", "y"))
        rep.rows = [dict(eps=1.0, y=1.0), dict(eps=2.0, y=4.0),
                    dict(eps=4.0, y=1e6)]
        rep.converged = [True, True, False]
        rep.fit("eps", "y")
        assert rep.slope == pytest.approx(2.0, abs=1e-12)

    def test_csv_roundtrip_shape(self, tmp_path):
        rep = ScanReport(kind="x", eps_values=[1.0],
                         columns=("eps", "y"),
                         config_echo=dict(mu=0.5))
        rep.rows = [dict(eps=1.0, y=2.0)]
        rep.converged = [True]
        rep.passed["ok"] = True
        p = tmp_path / "scan.csv"
        rep.to_csv(p)
        text = p.read_text().splitlines()
        assert text[0] == "# scan = x"
        assert "# mu = 0.5" in text
        assert "eps,y,converged" in text
        assert "# pass_ok = 1" in text


class TestBalanceScan:
    def test_small_grid_slope(self):
        rep = balance_scan([0.2, 0.1, 0.05], kmax=2.0, transient=4.0,
                           window=4.0)
        assert all(rep.converged)
        assert rep.passed["slope_ge_0.45"]
        assert rep.slope >= 0.45
        assert [r["eps"] for r in rep.rows] == [0.2, 0.1, 0.05]

    def test_slow_forcing_floor(self):
        f = default_forcing(DOM, kmax=2.0, fast_norm=0.0)
        assert not f.ageostrophic
        rep = balance_scan([0.1], kmax=2.0, forcing=f, transient=4.0,
                           window=4.0)
        fa = default_forcing(DOM, kmax=2.0)
        rep2 = balance_scan([0.1], kmax=2.0, forcing=fa, transient=4.0,
                            window=4.0)
        # without a fast forcing seed the fast energy sits well below the
        # ageostrophically forced level
        assert rep.rows[0]["sup_fast"] <= 0.2 * rep2.rows[0]["sup_fast"]


class TestManifoldScan:
    def test_columns_and_monotonicity(self):
        rep = manifold_scan([0.1], [0, 1], kmax=2.0, transient=4.0,
                            window=4.0)
        rows = {r["n"]: r for r in rep.rows}
        # n = 0 graph is U == 0: residual is the plain fast energy
        assert rows[0]["residual"] == pytest.approx(rows[0]["fast_norm"],
                                                    rel=1e-12)
        assert rep.passed["n1_half_of_n0"]
        assert rep.passed["monotone_in_n"]

    def test_rejects_time_dependent_forcing(self):
        f = default_forcing(DOM, kmax=2.0)
        mod = ForcingSpec(f.coeffs, modulation=lambda t: math.cos(t))
        with pytest.raises(ValueError, match="steady"):
            manifold_scan([0.1], [0, 1], kmax=2.0, forcing=mod)


class TestGevreyTail:
    def test_slope_matches_envelope_rate(self):
        rep = gevrey_tail_check(0.5, [2.0, 3.0, 4.0, 5.0])
        assert rep.passed["slope_within_10pct"]
        assert abs(rep.slope + 0.5) <= 0.05
        assert rep.passed["bounded_C"]

    def test_kappa_above_cutoff_zero_tail(self):
        rep = gevrey_tail_check(0.5, [9.0], kmax=8.0)
        assert rep.rows[0]["tail"] == 0.0

    def test_weighted_tail_ratio(self):
        r0 = gevrey_tail_check(0.5, [2.0, 3.0, 4.0], s=0.0)
        r2 = gevrey_tail_check(0.5, [2.0, 3.0, 4.0], s=2.0)
        kmax = 8.0
        for a, b in zip(r0.rows, r2.rows):
            assert b["tail"] <= kmax ** 2 * a["tail"] * (1 + 1e-12)
            assert b["tail"] >= a["kappa"] ** 2 * a["tail"] * (1 - 1e-12)

    def test_full_support_bound_still_holds(self):
        rep = gevrey_tail_check(0.5, [2.0, 3.0, 4.0], support="full")
        assert rep.passed["bounded_C"]

    def test_bad_support(self):
        with pytest.raises(ValueError, match="support"):
            gevrey_tail_check(0.5, [2.0], support="shell")
