"""Time integration: exact diffusion, RK4 order, conservation, budgets,
and physical-space reconstruction."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geobalance._engine import mode_table
from geobalance.dynamics import (DivergenceError, ForcingSpec, SolverConfig,
                                 apply_A, energy_budget, integrate,
                                 reconstruct_fields, tendency)
from geobalance.experiments import default_forcing, oscillation_dt
from geobalance.interactions import pairing
from geobalance.lattice import (DomainSpec, SpectralState, check_reality,
                                enforce_reality, random_state, sobolev_norm)

DOM = DomainSpec()


def _zonal(amplitude=1.0):
    # purely horizontal slow shear: advective term vanishes identically
    return SpectralState(DOM, 2.0, {(0, 1, 0, 0): amplitude * 1.0j,
                                    (0, -1, 0, 0): amplitude * 1.0j})


def _forcing(kmax=2.0, seed=7, scale=0.1):
    f = scale * random_state(DOM, kmax, seed, frame="lab")
    return ForcingSpec(enforce_reality(f))


class TestValidation:
    def test_config_ranges(self):
        with pytest.raises(ValueError, match="eps"):
            SolverConfig(eps=0.0, mu=0.1, dt=0.1, t_end=1.0, kmax=2.0)
        with pytest.raises(ValueError, match="mu"):
            SolverConfig(eps=0.1, mu=-1.0, dt=0.1, t_end=1.0, kmax=2.0)
        with pytest.raises(ValueError, match="dt"):
            SolverConfig(eps=0.1, mu=0.1, dt=0.0, t_end=1.0, kmax=2.0)
        with pytest.raises(ValueError, match="cadence"):
            SolverConfig(eps=0.1, mu=0.1, dt=0.5, t_end=1.0, kmax=2.0,
                         record_every=4)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be finite"):
            SolverConfig(eps=eps, mu=0.1, dt=0.1, t_end=1.0, kmax=2.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu must be finite"):
            SolverConfig(eps=0.1, mu=mu, dt=0.1, t_end=1.0, kmax=2.0)

    @pytest.mark.parametrize("every", [0, 2.5, 0.5, math.nan, math.inf])
    def test_record_every_must_be_whole(self, every):
        with pytest.raises(ValueError, match="record_every must be a whole"):
            SolverConfig(eps=0.1, mu=0.1, dt=0.01, t_end=0.05, kmax=2.0,
                         record_every=every)

    def test_unknown_conv_method_rejected(self):
        with pytest.raises(ValueError, match="convolution method 'bogus'"):
            SolverConfig(eps=0.1, mu=0.1, dt=0.1, t_end=1.0, kmax=2.0,
                         conv_method="bogus")

    def test_t_end_must_be_whole_steps(self):
        for t_end in (1.0, -0.9):
            with pytest.raises(ValueError, match="whole number of steps"):
                SolverConfig(eps=0.1, mu=0.1, dt=0.3, t_end=t_end, kmax=2.0)
        # float quotients within roundoff of an integer are whole steps
        cfg = SolverConfig(eps=0.1, mu=0.1, dt=0.1, t_end=0.3, kmax=2.0)
        rec, _ = integrate(SpectralState(DOM, 2.0, {}), cfg)
        assert rec.times[-1] == pytest.approx(0.3, rel=1e-15)

    def test_forcing_reality_enforced(self):
        bad = SpectralState(DOM, 2.0, {(1, 0, 1, 0): 1.0}, frame="lab")
        with pytest.raises(ValueError, match="reality"):
            ForcingSpec(bad)

    def test_fast_forcing_at_k3_zero_impossible(self):
        # the constraint lives in the state container itself
        with pytest.raises(ValueError, match="fast branch at l3=0"):
            SpectralState(DOM, 2.0, {(1, 1, 0, 1): 1.0}, frame="lab")

    def test_ageostrophic_flag(self):
        slow = ForcingSpec(enforce_reality(
            SpectralState(DOM, 2.0, {(1, 0, 1, 0): 1.0}, frame="lab")))
        assert not slow.ageostrophic
        fast = _forcing(seed=8)
        assert fast.ageostrophic

    def test_integrate_rejects_lab_frame(self):
        s = random_state(DOM, 2.0, 9, frame="rotated")
        lab = s.replace(frame="lab")
        cfg = SolverConfig(eps=0.1, mu=0.1, dt=0.1, t_end=0.2, kmax=2.0)
        with pytest.raises(ValueError, match="rotated"):
            integrate(lab, cfg)
        with pytest.raises(ValueError, match="rotated"):
            tendency(lab, 0.0, cfg)

    def test_energy_budget_rejects_lab_frame(self):
        lab = random_state(DOM, 3.0, 9, frame="lab")
        cfg = SolverConfig(eps=0.1, mu=0.1, dt=0.1, t_end=0.2, kmax=3.0)
        with pytest.raises(ValueError, match="rotated"):
            energy_budget(lab, default_forcing(DOM, 3.0), 0.0, cfg)

    def test_forcing_on_another_box_refused(self):
        """A forcing is matched to the state by box as well as by integer
        triple; one of another kmax is embedded."""
        box = DomainSpec(2.0 * math.pi, 4.0, 3.0)
        s = SpectralState(DOM, 3.0, {})
        cfg = SolverConfig(eps=0.1, mu=0.1, dt=0.1, t_end=0.2, kmax=3.0)
        f = default_forcing(box, 3.0)
        for run in (lambda: integrate(s, cfg, f),
                    lambda: tendency(s, 0.0, cfg, f),
                    lambda: energy_budget(s, f, 0.0, cfg)):
            with pytest.raises(ValueError, match=r"box 6\.28319 x 4 x 3 .* "
                               r"box 6\.28319 x 6\.28319 x 6\.28319"):
                run()
        rec, _ = integrate(s, cfg, default_forcing(DOM, 2.0))
        assert rec.e_total[-1] > 0.0

    def test_kmax_must_match_the_state(self):
        s = random_state(DOM, 2.0, 9)
        cfg = SolverConfig(eps=0.1, mu=0.1, dt=0.1, t_end=0.2, kmax=3.0)
        for run in (lambda: integrate(s, cfg), lambda: tendency(s, 0.0, cfg),
                    lambda: energy_budget(s, None, 0.0, cfg)):
            with pytest.raises(ValueError, match=r"kmax = 3\.0 .* 2\.0"):
                run()


class TestApplyA:
    def test_diagonal_weight(self):
        s = SpectralState(DOM, 3.0, {(1, 2, -1, 0): 1.0 + 1.0j})
        out = apply_A(s, 0.5)
        assert out[(1, 2, -1, 0)] == pytest.approx(3.0 * (1.0 + 1.0j))

    def test_anisotropic_factors(self):
        dom = DomainSpec(L1=4.0 * math.pi, L2=2.0 * math.pi,
                         L3=2.0 * math.pi)
        s = SpectralState(dom, 2.0, {(2, 0, 0, 0): 2.0})
        assert apply_A(s, 1.0)[(2, 0, 0, 0)] == pytest.approx(2.0)


class TestIntegration:
    def test_exact_diffusion_decay(self):
        # a state the nonlinearity annihilates: decay must match
        # e^{-mu |k|^2 t} to roundoff over many steps
        mu, T = 0.7, 2.0
        cfg = SolverConfig(eps=0.1, mu=mu, dt=0.05, t_end=T, kmax=2.0)
        _, w = integrate(_zonal(), cfg)
        decay = math.exp(-mu * T)
        for key in ((0, 1, 0, 0), (0, -1, 0, 0)):
            assert abs(w[key] - 1.0j * decay) <= 1e-13

    def test_convergence_order(self):
        s = enforce_reality(random_state(DOM, 2.0, 31, scale=0.5))
        f = _forcing(seed=32, scale=0.3)

        def final(dt):
            cfg = SolverConfig(eps=0.5, mu=0.3, dt=dt, t_end=0.8, kmax=2.0)
            return integrate(s, cfg, f)[1]

        ref = final(0.8 / 256)
        errs = [sobolev_norm(final(0.8 / n) - ref) for n in (8, 16, 32)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.7

    def test_inviscid_energy_drift(self):
        s = enforce_reality(random_state(DOM, 2.0, 33, scale=0.1))
        cfg = SolverConfig(eps=0.5, mu=0.0, dt=0.01, t_end=10.0, kmax=2.0)
        rec, _ = integrate(s, cfg)
        e0 = rec.e_total[0]
        drift = np.abs(rec.e_total ** 2 - e0 ** 2).max() / e0 ** 2
        assert drift <= 1e-8

    def test_reality_preserved(self):
        s = enforce_reality(random_state(DOM, 2.0, 34, scale=0.5))
        cfg = SolverConfig(eps=0.2, mu=0.2, dt=0.02, t_end=1.0, kmax=2.0)
        _, w = integrate(s, cfg, _forcing(seed=35))
        assert check_reality(w) <= 1e-12

    def test_direct_equals_grid_paths(self):
        s = enforce_reality(random_state(DOM, 2.0, 36, scale=0.5))
        f = _forcing(seed=37)
        out = {}
        for method in ("direct", "grid"):
            cfg = SolverConfig(eps=0.2, mu=0.2, dt=0.05, t_end=0.5,
                               kmax=2.0, conv_method=method)
            out[method] = integrate(s, cfg, f)[1]
        d = out["direct"] - out["grid"]
        assert sobolev_norm(d) <= 1e-11 * sobolev_norm(out["direct"])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises(self):
        s = enforce_reality(random_state(DOM, 2.0, 38, scale=50.0))
        cfg = SolverConfig(eps=0.1, mu=0.0, dt=5.0, t_end=500.0, kmax=2.0)
        with pytest.raises(DivergenceError, match="non-finite"):
            integrate(s, cfg)

    def test_keep_states(self):
        s = enforce_reality(random_state(DOM, 2.0, 39, scale=0.2))
        cfg = SolverConfig(eps=0.2, mu=0.1, dt=0.1, t_end=0.5, kmax=2.0)
        rec, w = integrate(s, cfg, keep_states=True)
        assert len(rec.states) == len(rec.times)
        last = rec.states[-1]
        assert max(abs(last[k] - w[k]) for k in w) == 0.0
        assert last.t == pytest.approx(0.5)

    @pytest.mark.parametrize("method", ["grid", "direct"])
    def test_record_columns_are_sobolev_norms(self, method):
        """Each E_* and H1 column is sobolev_norm of the recorded state,
        its fast and slow branches and s = 1, bit for bit."""
        s = random_state(DOM, 3.0, 52, scale=0.5)
        cfg = SolverConfig(eps=0.1, mu=0.5, dt=0.01, t_end=0.05, kmax=3.0,
                           conv_method=method)
        rec, _ = integrate(s, cfg, default_forcing(DOM, 3.0),
                           keep_states=True)
        got = np.stack([rec.e_total, rec.e_fast, rec.e_slow, rec.h1], 1)
        want = [[sobolev_norm(st), sobolev_norm(st.branch((1, -1))),
                 sobolev_norm(st.branch(0)), sobolev_norm(st, 1.0)]
                for st in rec.states]
        assert got.tolist() == want

    def test_trajectory_csv(self, tmp_path):
        s = enforce_reality(random_state(DOM, 2.0, 40, scale=0.2))
        cfg = SolverConfig(eps=0.2, mu=0.1, dt=0.1, t_end=0.3, kmax=2.0)
        rec, _ = integrate(s, cfg)
        p = tmp_path / "traj.csv"
        rec.to_csv(p, header_lines=("eps = 0.2",))
        lines = p.read_text().splitlines()
        assert lines[0] == "# eps = 0.2"
        assert lines[1].startswith("t,E_total")
        assert len(lines) == 2 + len(rec.times)


class TestBudget:
    def test_identity_residual(self):
        s = enforce_reality(random_state(DOM, 2.0, 41, scale=0.5))
        cfg = SolverConfig(eps=0.2, mu=0.3, dt=0.05, t_end=1.0, kmax=2.0)
        f = _forcing(seed=42)
        de, diss, transfer, inject, residual = energy_budget(s, f, 0.3, cfg)
        scale = max(abs(de), abs(diss), abs(transfer), abs(inject), 1.0)
        assert abs(residual) <= 1e-11 * scale
        rec, _ = integrate(s, cfg, f)
        assert np.abs(rec.budget_residual).max() <= 1e-10

    def test_default_simulate_residual_at_roundoff(self):
        """The default `simulate` run (kmax 6, 76 steps): at every record
        the budget residual is at most 4e-15 of the largest term, with
        the terms recomputed from the kept state."""
        f = default_forcing(DOM, 6.0)
        dt = oscillation_dt(DOM, 6.0, 0.1)
        cfg = SolverConfig(eps=0.1, mu=0.5, dt=dt, t_end=76 * dt, kmax=6.0)
        rec, _ = integrate(SpectralState(DOM, 6.0, {}), cfg, f,
                           keep_states=True)
        assert len(rec.states) == 77
        for st, res in zip(rec.states, rec.budget_residual):
            terms = energy_budget(st, f, st.t, cfg)
            assert terms[-1] == res
            assert abs(res) <= 4e-15 * max(map(abs, terms[:4]))

    def test_injection_is_the_fast_pairing(self):
        """The injection term is pairing(f_fast, c_fast) of the lab forcing
        and the lab state, c = exp(-i omega t / eps) w, bit for bit."""
        s = random_state(DOM, 3.0, 53, scale=0.5)
        f = default_forcing(DOM, 3.0)
        cfg = SolverConfig(eps=0.2, mu=0.3, dt=0.05, t_end=1.0, kmax=3.0)
        table = mode_table(DOM, 3.0)
        lab = SpectralState._of(table.index, table.phase(0.3, 0.2) * s.array,
                                frame="lab")
        inject = energy_budget(s, f, 0.3, cfg)[3]
        want = pairing(f.coeffs.branch((1, -1)), lab.branch((1, -1)))
        assert inject == want.real

    def test_budget_follows_conv_method(self, monkeypatch):
        from geobalance._engine import ModeTable

        def refuse(self, w, what):
            raise AssertionError("conv_direct called for conv_method='grid'")

        s = enforce_reality(random_state(DOM, 2.0, 48, scale=0.5))
        grid = SolverConfig(eps=0.2, mu=0.3, dt=0.05, t_end=1.0, kmax=2.0,
                            conv_method="grid")
        f = _forcing(seed=49)
        want = energy_budget(s, f, 0.3, replace(grid, conv_method="direct"))
        monkeypatch.setattr(ModeTable, "conv_direct", refuse)
        got = energy_budget(s, f, 0.3, grid)
        assert got[:4] == pytest.approx(want[:4], rel=1e-11)

    def test_records_lend_their_product_to_the_next_step(self, monkeypatch):
        """A record's product B(c, c) of c = E w at the step's end is the
        next step's stage-1 product: 4 steps recorded every 2 make 16 stage
        products and 3 records of 2, less the 2 records a step follows.
        The reuse is bit-exact: the final state does not depend on the
        record cadence."""
        from geobalance._engine import ModeTable

        s = enforce_reality(random_state(DOM, 2.0, 50, scale=0.5))
        cfg = SolverConfig(eps=0.2, mu=0.3, dt=0.05, t_end=0.2, kmax=2.0,
                           record_every=2, conv_method="direct")
        f = _forcing(seed=51)
        _, once = integrate(s, replace(cfg, record_every=4), f)
        calls = []
        direct = ModeTable.conv_direct

        def counted(self, w, what):
            calls.append(1)
            return direct(self, w, what)

        monkeypatch.setattr(ModeTable, "conv_direct", counted)
        _, final = integrate(s, cfg, f)
        assert len(calls) == 4 * 4 + 3 * 2 - 2
        assert np.array_equal(final.array, once.array)

    def test_dissipation_sign_and_value(self):
        s = SpectralState(DOM, 2.0, {(1, 0, 1, 1): 1.0, (-1, 0, -1, 1): -1.0})
        cfg = SolverConfig(eps=0.2, mu=0.5, dt=0.1, t_end=0.1, kmax=2.0)
        _, diss, _, _, _ = energy_budget(s, None, 0.0, cfg)
        # two unit fast modes with |k|^2 = 2, times mu and the box volume
        assert diss == pytest.approx(DOM.volume * 0.5 * 2.0 * 2.0, rel=1e-13)

    def test_fast_energy_derivative_matches(self):
        # central difference of ||We||^2/2 along the flow vs the budget
        s = enforce_reality(random_state(DOM, 2.0, 43, scale=0.3))
        cfg = SolverConfig(eps=0.3, mu=0.2, dt=1e-3, t_end=2e-3, kmax=2.0)
        f = _forcing(seed=44)
        rec, _ = integrate(s, cfg, f, keep_states=True)
        vol = DOM.volume
        de_fd = vol * (rec.e_fast[2] ** 2 - rec.e_fast[0] ** 2) / (2 * 2e-3)
        de_mid, *_ = energy_budget(rec.states[1], f, 1e-3, cfg)
        assert de_mid == pytest.approx(de_fd, rel=1e-4)


class TestReconstruct:
    def test_real_fields_and_parities(self):
        s = enforce_reality(random_state(DOM, 2.0, 45))
        g = reconstruct_fields(s, 12)
        even = ("v1", "v2", "delta_p", "p_avg")
        odd = ("rho", "u3")
        for name in even + odd:
            arr = g[name]
            assert np.abs(arr.imag).max() <= 1e-12
            flip = np.roll(arr[:, :, ::-1], 1, axis=2)  # z -> -z on the grid
            sgn = 1.0 if name in even else -1.0
            assert np.abs(arr - sgn * flip).max() <= 1e-11

    def test_slow_state_no_vertical_velocity(self):
        s = enforce_reality(random_state(DOM, 2.0, 46, slow_only=True))
        g = reconstruct_fields(s, 12)
        assert np.abs(g["u3"]).max() <= 1e-13

    def test_incompressibility_on_grid(self):
        s = enforce_reality(random_state(DOM, 2.0, 47))
        n = 12
        g = reconstruct_fields(s, n)
        freq = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers, L = 2 pi
        k1 = freq[:, None, None]
        k2 = freq[None, :, None]
        k3 = freq[None, None, :]
        div = (1j * k1 * np.fft.fftn(g["v1"])
               + 1j * k2 * np.fft.fftn(g["v2"])
               + 1j * k3 * np.fft.fftn(g["u3"]))
        assert np.abs(div).max() / n ** 3 <= 1e-12

    def test_resolution_guard(self):
        s = SpectralState(DOM, 3.0, {(2, 0, 1, 0): 1.0})
        with pytest.raises(ValueError, match="aliasing"):
            reconstruct_fields(enforce_reality(s), (4, 8, 8))

    def test_numpy_integer_resolution(self):
        s = enforce_reality(random_state(DOM, 2.0, 54))
        want = reconstruct_fields(s, 8)
        got = reconstruct_fields(s, np.int64(8))
        for name, arr in want.items():
            assert np.array_equal(got[name], arr)

    def test_single_mode_hand_values(self):
        # seed mode (1,0,1) with X0 = (0,-1,1)/sqrt(2); the symmetry orbit
        # has four members (conjugate and z-mirror pairs), summing to a
        # standing wave -2 sqrt(2) cos(x) cos(z) in v2
        s = enforce_reality(SpectralState(DOM, 2.0, {(1, 0, 1, 0): 1.0}))
        g = reconstruct_fields(s, 8)
        assert np.abs(g["v1"]).max() <= 1e-13
        x, z = np.meshgrid(g["x"], g["z"], indexing="ij")
        want = -2.0 * np.sqrt(2.0) * np.cos(x) * np.cos(z)
        assert np.abs(g["v2"][:, 0, :].real - want).max() <= 1e-12


class TestRealityThroughOneStep:
    """One IF-RK4 step from a random reality-constrained state keeps the
    constraints at roundoff, on both convolution kernels."""

    @pytest.mark.parametrize("method", ["direct", "grid"])
    @given(seed=st.integers(0, 2 ** 32 - 1),
           eps=st.sampled_from([0.05, 0.2, 1.0]))
    @settings(max_examples=10, deadline=None)
    def test_one_step(self, method, seed, eps):
        s = random_state(DOM, 3.0, seed, scale=0.5)
        assert check_reality(s) <= 1e-15
        cfg = SolverConfig(eps=eps, mu=0.1, dt=0.01, t_end=0.01, kmax=3.0,
                           conv_method=method)
        _, w = integrate(s, cfg, _forcing(seed=seed % 1000))
        scale = max(1.0, float(np.abs(w.array).max()))
        assert check_reality(w) <= 1e-14 * scale
