"""Eigenframe closed forms checked against the defining matrix problem."""

import math

import numpy as np
import pytest

from geobalance.lattice import DomainSpec, SpectralState, random_state, \
    wavevectors
from geobalance.modes import (advection_vector, apply_Iomega, apply_L,
                              apply_Linv, eigenframe, frequencies,
                              slow_fast_split, from_vector_coefficients,
                              to_vector_coefficients)

DOM = DomainSpec()


def _L_matrix(kv):
    """The skew matrix whose eigenproblem defines the frame (k3 != 0)."""
    k1, k2, k3 = kv.k
    return np.array([[0.0, -1.0, -k1 / k3],
                     [1.0, 0.0, -k2 / k3],
                     [k1 / k3, k2 / k3, 0.0]])


class TestEigenframe:
    def test_eigen_relation_generic(self):
        for kv in wavevectors(DOM, 4.0):
            if kv.l[2] == 0:
                continue
            fr = eigenframe(kv)
            L = _L_matrix(kv)
            for X, om in ((fr.X0, 0.0), (fr.X_plus, fr.omega_plus),
                          (fr.X_minus, fr.omega_minus)):
                assert np.abs(L @ X - 1j * om * X).max() < 1e-13

    def test_orthonormal_hermitian(self):
        worst = 0.0
        for kv in wavevectors(DOM, 8.0):
            fr = eigenframe(kv)
            vs = [fr.X0] + ([fr.X_plus, fr.X_minus] if fr.has_fast else [])
            G = np.array([[np.dot(a, np.conj(b)) for b in vs] for a in vs])
            worst = max(worst, np.abs(G - np.eye(len(vs))).max())
        assert worst <= 1e-14

    def test_frequency_signs_and_floor(self):
        floor = math.inf
        for kv in wavevectors(DOM, 6.0):
            if kv.l[2] == 0:
                continue
            _, wp, wm = frequencies(kv)
            assert wp == -wm
            if kv.kperp > 0:
                assert wp == pytest.approx(kv.kabs / kv.k3, rel=1e-15)
            else:
                assert wp == 1.0  # vertical axis: unit inertial frequency
            floor = min(floor, abs(wp))
        assert floor == 1.0  # attained at k' = 0 exactly

    def test_vertical_frame(self):
        fr = eigenframe(DOM.wavevector(0, 0, -2))
        assert fr.omega_plus == 1.0 and fr.omega_minus == -1.0
        assert np.allclose(fr.X0, [0, 0, -1])
        assert np.allclose(fr.X_plus, np.array([1, -1j, 0]) / math.sqrt(2))

    def test_horizontal_slow_only(self):
        fr = eigenframe(DOM.wavevector(2, 1, 0))
        assert not fr.has_fast
        kp = math.sqrt(5.0)
        assert np.allclose(fr.X0, np.array([1, -2, 0]) / kp)

    def test_advection_incompressible(self):
        for kv in wavevectors(DOM, 4.0):
            for a in ((0, 1, -1) if kv.l[2] != 0 else (0,)):
                vx = advection_vector(kv, a)
                assert abs(np.dot(vx, kv.k)) < 1e-13

    def test_slow_advection_is_horizontal(self):
        vx = advection_vector(DOM.wavevector(1, 2, 3), 0)
        assert vx[2] == 0.0
        assert np.allclose(advection_vector(DOM.wavevector(0, 0, 2), 0),
                           [0, 0, 0])


class TestOperators:
    def test_L_kernel_is_slow(self):
        s = random_state(DOM, 3.0, 11).branch(0)
        out = apply_L(s)
        assert max((abs(v) for _, v in out.items()), default=0.0) <= 1e-15

    def test_L_diagonal_phase(self):
        s = SpectralState(DOM, 3.0, {(1, 1, 1, 1): 2.0})
        out = apply_L(s)
        om = math.sqrt(3.0)
        assert out[(1, 1, 1, 1)] == pytest.approx(2j * om)

    def test_Linv_roundtrip(self):
        s = random_state(DOM, 3.0, 12).branch((1, -1))
        back = apply_Linv(apply_L(s))
        assert max(abs(back[k] - s[k]) for k in s) <= 1e-13

    def test_Linv_rejects_slow(self):
        s = SpectralState(DOM, 2.0, {(1, 0, 1, 0): 1.0})
        with pytest.raises(ValueError, match="kernel"):
            apply_Linv(s)

    def test_Iomega_scales_by_i_over_omega(self):
        s = SpectralState(DOM, 3.0, {(1, 1, -1, 1): 1.0, (1, 1, -1, -1): 1.0,
                                     (1, 1, -1, 0): 5.0})
        out = apply_Iomega(s)
        om = math.sqrt(3.0) / (-1.0)  # omega^+ at (1,1,-1)
        assert out[(1, 1, -1, 1)] == pytest.approx(1j / om)
        assert out[(1, 1, -1, -1)] == pytest.approx(-1j / om)
        assert (1, 1, -1, 0) not in out  # slow dropped
        # unit vertical mode: i / 1 = i
        v = apply_Iomega(SpectralState(DOM, 2.0, {(0, 0, 1, 1): 1.0}))
        assert v[(0, 0, 1, 1)] == pytest.approx(1j)

    def test_Iomega_norm_nonincreasing(self):
        s = random_state(DOM, 3.0, 17)
        from geobalance.lattice import sobolev_norm
        for sexp in (0.0, 2.0):
            assert (sobolev_norm(apply_Iomega(s), sexp)
                    <= sobolev_norm(s, sexp) + 1e-14)

    def test_vector_coefficient_roundtrip(self):
        s = random_state(DOM, 3.0, 13)
        W = to_vector_coefficients(s)
        back = from_vector_coefficients(s.domain, s.kmax, W, s.frame, s.t)
        assert max(abs(back[k] - s[k]) for k in s) <= 1e-13


class TestSplit:
    def test_pure_slow_passthrough(self):
        s = random_state(DOM, 3.0, 14, slow_only=True)
        slow, fast = slow_fast_split(s)
        assert len(fast) == 0
        assert max(abs(slow[k] - s[k]) for k in s) <= 1e-14

    def test_partition_and_orthogonality(self):
        s = random_state(DOM, 3.0, 15)
        slow, fast = slow_fast_split(s)
        back = slow + fast
        assert max(abs(back[k] - s[k]) for k in s) <= 1e-14
        ip = sum(slow.get(k) * np.conj(fast.get(k)) for k in s)
        assert abs(ip) <= 1e-12

    def test_fast_has_no_pv(self):
        # the PV cross-check inside the split enforces this; a loose
        # direct check: splitting the fast part again returns no slow part
        s = random_state(DOM, 3.0, 16)
        _, fast = slow_fast_split(s)
        slow2, fast2 = slow_fast_split(fast)
        assert max((abs(v) for _, v in slow2.items()), default=0.0) <= 1e-12


BOX = DomainSpec(2.0 * math.pi, 4.0, 3.0)


def _table(dom):
    from geobalance._engine import ModeTable
    return ModeTable(dom, 3.0)


@pytest.mark.parametrize("dom", [DOM, BOX], ids=["cube", "box"])
class TestTables:
    """The closed forms over whole mode tables, at kmax 3."""

    def test_eigen_relation(self, dom):
        t = _table(dom)
        fast = t.fast_ok
        r1, r2 = (t.kphys[fast, :2] / t.kphys[fast, 2:]).T
        L = np.zeros((len(r1), 3, 3))
        L[:, 0, 1], L[:, 1, 0] = -1.0, 1.0
        L[:, 0, 2], L[:, 1, 2], L[:, 2, 0], L[:, 2, 1] = -r1, -r2, r1, r2
        for a in range(3):
            X = t.X[a, fast]
            LX = np.einsum("mij,mj->mi", L, X)
            assert np.abs(LX - 1j * t.omega[a, fast, None] * X).max() < 1e-13

    def test_orthonormal_per_row(self, dom):
        t = _table(dom)
        gram = np.einsum("anc,bnc->nab", t.X, np.conj(t.X))
        has = np.ones((t.nk, 3), dtype=bool)
        has[:, 1:] = t.fast_ok[:, None]
        eye = np.eye(3) * (has[:, :, None] & has[:, None, :])
        assert np.abs(gram - eye).max() <= 1e-14

    def test_advection_vectors(self, dom):
        t = _table(dom)
        assert np.abs(np.einsum("anc,nc->an", t.VX, t.kphys)).max() < 1e-13
        assert not t.VX[0, :, 2].any()  # slow flow is horizontal
        assert np.array_equal(t.VX[:, :, :2], t.X[:, :, :2])

    def test_no_fast_rows_at_k3_zero(self, dom):
        t = _table(dom)
        flat = t.ints[:, 2] == 0
        assert flat.any()
        for arr in (t.X, t.VX, t.omega):
            assert not arr[1:, flat].any()

    def test_accessors_read_the_tables(self, dom):
        t = _table(dom)
        for n, l in enumerate(t.ints.tolist()):
            kv = dom.wavevector(*l)
            fr = eigenframe(kv)
            assert fr.X0.tobytes() == t.X[0, n].tobytes()
            assert (frequencies(kv)[0], fr.omega0) == (0.0, 0.0)
            for a, b in ((0, 0), (1, 1), (2, -1)):
                if b and not fr.has_fast:
                    assert frequencies(kv)[a] is None
                    with pytest.raises(ValueError, match="absent"):
                        advection_vector(kv, b)
                    continue
                assert fr.X(b).tobytes() == t.X[a, n].tobytes()
                assert (advection_vector(kv, b).tobytes()
                        == t.VX[a, n].tobytes())
                assert frequencies(kv)[a] == fr.omega(b) == t.omega[a, n]

    def test_zero_wavevector_refused(self, dom):
        kv = dom.wavevector(0, 0, 0)
        for f in (frequencies, eigenframe, lambda k: advection_vector(k, 0)):
            with pytest.raises(ValueError, match="zero wavevector"):
                f(kv)
