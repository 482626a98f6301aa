"""Balanced-graph construction, jets and remainders, against explicit
low-order expansions and the exact two-route identity."""

import math

import numpy as np
import pytest

from geobalance._engine import ModeTable
from geobalance.dynamics import ForcingSpec, apply_A
from geobalance.experiments import manifold_scan
from geobalance.interactions import apply_B_fast, apply_B_slow
from geobalance.lattice import (DomainSpec, SpectralState, enforce_reality,
                                random_state, sobolev_norm)
from geobalance.modes import apply_Linv
from geobalance.slowmanifold import (ManifoldApprox, _Ctx, contraction_scan,
                                     g_of, iterate, kappa_delta,
                                     remainder_diff, remainder_direct, u1)

DOM = DomainSpec()
KMAX = 2.0
KAPPA = KMAX * (1 + 1e-9)  # keep the boundary shell of a kmax=2 state


def _zero():
    return SpectralState(DOM, KMAX, {})


def _slow_state(seed, scale=0.5):
    return enforce_reality(random_state(DOM, KMAX, seed, scale=scale,
                                        slow_only=True))


def _forcing(seed=5, scale=0.4):
    return ForcingSpec(enforce_reality(
        scale * random_state(DOM, KMAX, seed, frame="lab")))


class TestKappaDelta:
    def test_eps_one(self):
        kappa, delta, _ = kappa_delta(1.0, 8.0)
        assert kappa == 1.0 and delta == 1.0

    def test_fourth_roots(self):
        kappa, delta, _ = kappa_delta(0.0016, 8.0)
        assert kappa == pytest.approx(5.0, rel=1e-12)
        assert delta == pytest.approx(0.2, rel=1e-12)

    def test_cutoff_cap(self):
        kappa, _, _ = kappa_delta(0.0016, 4.0)
        assert kappa == 4.0

    def test_iteration_cap(self):
        _, _, n_cap = kappa_delta(0.0016, 8.0, n_max=4, eta=1.0)
        assert n_cap == 4  # floor(1/0.2) = 5, capped at n_max
        _, _, n_cap = kappa_delta(0.0625, 8.0, n_max=4, eta=1.0)
        assert n_cap == 2  # floor(1/0.5)

    def test_eps_range(self):
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="eps"):
                kappa_delta(eps, 8.0)


class TestU1:
    def test_vertical_unit_forcing(self):
        f = ForcingSpec(enforce_reality(
            SpectralState(DOM, KMAX, {(0, 0, 1, 1): 1.0}, frame="lab")))
        U = u1(_zero(), f, 0.1)
        # omega = +1 on the vertical axis: eps/(i omega) = -0.1i
        assert U[(0, 0, 1, 1)] == pytest.approx(-0.1j, abs=1e-15)

    def test_no_fast_forcing_no_flow(self):
        f = ForcingSpec(enforce_reality(
            SpectralState(DOM, KMAX, {(1, 0, 1, 0): 1.0}, frame="lab")))
        U = u1(_zero(), f, 0.1)
        assert len(U) == 0 or max(abs(v) for _, v in U.items()) == 0.0

    def test_linear_in_eps(self):
        W = _slow_state(1)
        f = _forcing()
        a = u1(W, f, 0.1)
        b = u1(W, f, 0.3)
        assert max(abs(3.0 * a[k] - b[k]) for k in a) <= 1e-14

    def test_matches_operator_assembly(self):
        W = _slow_state(2)
        f = _forcing(6)
        eps = 0.2
        rhs = f.coeffs.replace(frame="rotated") - apply_B_fast(W, W)
        _, rhs_fast = __import__("geobalance.modes", fromlist=["x"]) \
            .slow_fast_split(rhs)
        want = eps * apply_Linv(rhs_fast)
        got = u1(W, f, eps)
        assert max(abs(got[k] - want.get(k)) for k in got) <= 1e-13


class TestGOf:
    def test_reduces_to_pv_advection(self):
        W = _slow_state(3)
        f = ForcingSpec.zero(DOM, KMAX)
        got = g_of(W, _zero(), f, mu=0.0)
        want = -1.0 * apply_B_slow(W, W)
        assert max(abs(got.get(k) - want.get(k))
                   for k in set(got) | set(want)) <= 1e-13

    def test_zero_inputs_give_slow_forcing(self):
        f = _forcing(7)
        got = g_of(_zero(), _zero(), f, mu=0.3)
        for key, v in got.items():
            assert v == pytest.approx(f.coeffs.get(key))
        assert all(k[3] == 0 for k in got)

    def test_output_purely_slow(self):
        W = _slow_state(4)
        U = u1(W, _forcing(8), 0.1)
        got = g_of(W, U, _forcing(8), mu=0.2)
        assert all(k[3] == 0 for k in got)


def _oracle_u2(W, forcing, eps, mu):
    """Hand expansion of the second-order graph from the public operators.

    U1 = eps Linv(f_fast - B_fast(W, W)); the directional derivative of U1
    is G -> -eps Linv(B_fast(G, W) + B_fast(W, G)); U2 assembles the
    chain-rule, advection, dissipation and forcing terms explicitly.
    """
    from geobalance.modes import slow_fast_split

    fro = forcing.coeffs.replace(frame="rotated")  # t = 0: phases are 1
    f_slow, f_fast = slow_fast_split(fro)
    U1 = eps * apply_Linv(f_fast - apply_B_fast(W, W))
    G1 = -1.0 * apply_B_slow(W + U1, W + U1) - apply_A(W, mu) + f_slow
    DU1G = -eps * apply_Linv(apply_B_fast(G1, W) + apply_B_fast(W, G1))
    rhs = (-1.0 * DU1G - apply_B_fast(W + U1, W + U1)
           - apply_A(U1, mu) + f_fast)
    return eps * apply_Linv(rhs)


class TestIterate:
    def test_zero_fixed_point(self):
        f = ForcingSpec.zero(DOM, KMAX)
        for n in (1, 2, 3):
            ap = ManifoldApprox(DOM, KAPPA, 0.1, 0.2, f, order=n, n_cap=4)
            U = ap(_zero())
            assert sobolev_norm(U) == 0.0

    def test_u2_polynomial_oracle(self):
        W = _slow_state(9, scale=0.4)
        f = _forcing(10)
        eps, mu = 0.15, 0.3
        ap = ManifoldApprox(DOM, KAPPA, eps, mu, f, order=2, n_cap=4)
        got = ap(W)
        want = _oracle_u2(W, f, eps, mu)
        err = max(abs(got.get(k) - want.get(k))
                  for k in set(got) | set(want))
        assert err <= 1e-12 * max(1.0, sobolev_norm(want))

    def test_iterate_increments_order(self):
        f = _forcing(11)
        ap = ManifoldApprox(DOM, KAPPA, 0.1, 0.2, f, order=1, n_cap=3)
        assert iterate(ap).order == 2

    def test_iteration_cap(self):
        f = _forcing(12)
        ap = ManifoldApprox(DOM, KAPPA, 0.1, 0.2, f, order=3, n_cap=3)
        with pytest.raises(ValueError, match="cap"):
            iterate(ap)
        with pytest.raises(ValueError, match="cap"):
            ManifoldApprox(DOM, KAPPA, 0.1, 0.2, f, order=5, n_cap=3)

    def test_jet_matches_finite_difference(self):
        W = _slow_state(13, scale=0.4)
        d = _slow_state(14, scale=1.0)
        f = _forcing(15)
        ap = ManifoldApprox(DOM, KAPPA, 0.1, 0.3, f, order=2, n_cap=4)
        _, (DU,) = ap.jet(W, [d])
        h = 1e-6
        fd = (1.0 / (2 * h)) * (ap(W + h * d) - ap(W + (-h) * d))
        num = sobolev_norm(DU - fd)
        assert num <= 1e-6 * max(1.0, sobolev_norm(DU))

    def test_range_property(self):
        W = enforce_reality(random_state(DOM, 4.0, 16, scale=0.3))
        f = _forcing(17)
        kappa = 2.5
        ap = ManifoldApprox(DOM, kappa, 0.1, 0.2,
                            ForcingSpec(f.coeffs), order=2, n_cap=4)
        U = ap(W)
        assert all(k[3] != 0 for k in U)
        assert all(DOM.wavevector(*k[:3]).kabs < kappa for k in U)


class TestRemainder:
    def test_n0_direct_formula(self):
        W = _slow_state(18, scale=0.4)
        f = _forcing(19)
        ap = ManifoldApprox(DOM, KAPPA, 0.1, 0.2, f, order=0, n_cap=4)
        got = remainder_direct(ap, W)
        from geobalance.modes import slow_fast_split
        _, f_fast = slow_fast_split(f.coeffs.replace(frame="rotated"))
        want = apply_B_fast(W, W) - f_fast
        err = max(abs(got.get(k) - want.get(k))
                  for k in set(got) | set(want))
        assert err <= 1e-13

    def test_zero_state_remainder_is_minus_forcing(self):
        f = _forcing(20)
        ap = ManifoldApprox(DOM, KAPPA, 0.1, 0.2, f, order=0, n_cap=4)
        got = remainder_direct(ap, _zero())
        for key, v in got.items():
            if key[3] != 0:
                assert v == pytest.approx(-f.coeffs.get(key))

    def test_two_route_identity(self):
        W = _slow_state(21, scale=0.4)
        f = _forcing(22)
        for n in (0, 1, 2):
            a_n = ManifoldApprox(DOM, KAPPA, 0.1, 0.3, f, order=n, n_cap=4)
            a_n1 = ManifoldApprox(DOM, KAPPA, 0.1, 0.3, f, order=n + 1,
                                  n_cap=4)
            direct = remainder_direct(a_n, W)
            diff = remainder_diff(a_n, a_n1, W)
            num = sobolev_norm(direct - diff)
            assert num <= 1e-12 * max(1.0, sobolev_norm(direct))

    def test_diff_validates_configuration(self):
        f = _forcing(23)
        a1 = ManifoldApprox(DOM, KAPPA, 0.1, 0.3, f, order=1, n_cap=4)
        a2 = ManifoldApprox(DOM, KAPPA, 0.2, 0.3, f, order=2, n_cap=4)
        with pytest.raises(ValueError, match="eps"):
            remainder_diff(a1, a2, _slow_state(24))
        a3 = ManifoldApprox(DOM, KAPPA, 0.1, 0.3, f, order=3, n_cap=4)
        with pytest.raises(ValueError, match="consecutive"):
            remainder_diff(a1, a3, _slow_state(24))
        # the two orders share one context, which holds one forcing
        b2 = ManifoldApprox(DOM, KAPPA, 0.1, 0.3, _forcing(25), order=2,
                            n_cap=4)
        with pytest.raises(ValueError, match="forcing"):
            remainder_diff(a1, b2, _slow_state(24))


class TestContraction:
    def test_scan_reports_threshold(self):
        W = _slow_state(25, scale=0.5)
        nrm = sobolev_norm(W, 2.0)
        W = (1.0 / nrm) * W if nrm > 1.0 else W
        f = _forcing(26, scale=0.2)
        rows, thresh = contraction_scan(W, f, 0.3, [0.4, 0.05], KAPPA,
                                        n_hi=3)
        assert [r[0] for r in rows] == [0.05, 0.4]
        assert thresh is not None and thresh >= 0.05
        norms = dict(rows)[0.05]
        assert all(b < a for a, b in zip(norms, norms[1:]))


class TestEpsValidation:
    """Every evaluator builds its context through ``_Ctx``, which refuses
    an eps that is not finite and positive, naming the value."""

    @pytest.mark.parametrize("eps", [-0.1, 0.0, math.nan])
    def test_contraction_scan(self, eps):
        W = _slow_state(28)
        with pytest.raises(ValueError, match=f"eps must be .* got {eps!r}"):
            contraction_scan(W, _forcing(29), 0.3, [eps], 2.0, n_hi=1)

    @pytest.mark.parametrize("eps", [-0.1, 0.0, math.nan])
    def test_manifold_approx(self, eps):
        ap = ManifoldApprox(DOM, KAPPA, eps, 0.3, _forcing(30), order=1,
                            n_cap=2)
        with pytest.raises(ValueError, match=f"eps must be .* got {eps!r}"):
            ap(_slow_state(31))


class TestProductsOncePerCall:
    """Each public call computes every distinct product once: the orders
    of the recursion repeat their lower orders' products bit for bit."""

    def _setup(self):
        W = _slow_state(21, scale=0.4)
        f = _forcing(22)
        ap = [ManifoldApprox(DOM, KAPPA, 0.1, 0.3, f, order=n, n_cap=4)
              for n in range(4)]
        return W, ap, _slow_state(27, scale=1.0)

    def test_direct_kernel_calls(self, monkeypatch):
        W, ap, _ = self._setup()
        calls = []
        direct = ModeTable.conv_direct

        def counted(self, a, b):
            calls.append(1)
            return direct(self, a, b)

        monkeypatch.setattr(ModeTable, "conv_direct", counted)
        for want, run in ((1, lambda: ap[1](W)), (4, lambda: ap[2](W)),
                          (13, lambda: ap[3](W)),
                          (13, lambda: remainder_direct(ap[2], W)),
                          (13, lambda: remainder_diff(ap[2], ap[3], W))):
            calls.clear()
            run()
            assert len(calls) == want
        # without the memo, U^3 makes 21 (1 + 5 + 15 over the recursion)
        monkeypatch.setattr(_Ctx, "conv", _Ctx._product)
        calls.clear()
        ap[3](W)
        assert len(calls) == 21

    def test_scans_share_one_context(self, monkeypatch):
        W, ap, _ = self._setup()
        calls = []
        product = _Ctx._product

        def counted(self, a, b):
            calls.append(1)
            return product(self, a, b)

        monkeypatch.setattr(_Ctx, "_product", counted)
        # R^0..R^3 alone make 1, 4, 13 and 40; R^3 repeats all the others
        contraction_scan(W, ap[0].forcing, 0.3, [0.1, 0.05], KAPPA, n_hi=3)
        assert len(calls) == 2 * 40
        # all orders at a sample of the scan cost what U^3 alone does
        counts = []
        for n_values in ([3], [0, 1, 2, 3]):
            calls.clear()
            manifold_scan([0.1], n_values, kmax=2.0, transient=0.5,
                          window=0.5)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_memo_is_bit_exact(self, monkeypatch):
        W, ap, d = self._setup()

        def outputs():
            U, (DU,) = ap[3].jet(W, [d])
            return [U.array, DU.array, ap[3](W).array,
                    remainder_direct(ap[2], W).array,
                    remainder_diff(ap[2], ap[3], W).array]

        memo = outputs()
        monkeypatch.setattr(_Ctx, "conv", _Ctx._product)
        for a, b in zip(memo, outputs()):
            assert np.array_equal(a, b)
