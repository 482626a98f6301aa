"""The real-field grid product against the direct triad sum, on the cube
and on an anisotropic box, for real and for non-real lab fields."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geobalance._engine import REAL_TOL, ModeTable, mode_table
from geobalance.lattice import DomainSpec, SpectralState, enforce_reality

DOM = DomainSpec()
BOX = DomainSpec(2.0 * math.pi, 4.0, 3.0)
# kmax 4 on the cube gives 15 grid points per axis: an odd irfftn length
CASES = [(DOM, 2.5), (DOM, 4.0), (BOX, 2.5)]


def _random(table, rng, constrained):
    """Gaussian slot array; fast slots at l3 = 0 stay zero.  Projected onto
    the reality-constraint set when ``constrained``."""
    w = rng.normal(size=(3, table.nk)) + 1j * rng.normal(size=(3, table.nk))
    w[1:, ~table.fast_ok] = 0.0
    if constrained:
        w = enforce_reality(SpectralState._of(table.index, w)).array
    return w


def _largest_term(table, w, what):
    """Largest single triad term of the direct sum."""
    table.conv_direct(w, what)  # builds the triad table
    jj, kk, _, cc = table._triads
    return float(np.abs(cc * w.reshape(-1)[jj] * what.reshape(-1)[kk]).max())


def _lab_field(table, what):
    return np.einsum("an,anc->cn", what, table.X)


@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 32 - 1),
       constrained=st.booleans())
@settings(max_examples=30, deadline=None)
def test_grid_equals_direct(case, seed, constrained):
    table = mode_table(*case)
    rng = np.random.default_rng(seed)
    w, what = (_random(table, rng, constrained) for _ in range(2))
    d = table.conv_direct(w, what)
    g = table.conv_grid(w, what)
    assert np.abs(g - d).max() <= 1e-13 * _largest_term(table, w, what)


def _count_products(monkeypatch):
    calls = []
    product = ModeTable._real_product

    def counted(self, u, F):
        calls.append(1)
        return product(self, u, F)

    monkeypatch.setattr(ModeTable, "_real_product", counted)
    return calls


def test_constrained_input_takes_one_real_product(monkeypatch):
    table = mode_table(DOM, 4.0)
    rng = np.random.default_rng(5)
    w, what = (_random(table, rng, True) for _ in range(2))
    calls = _count_products(monkeypatch)
    table.conv_grid(w, what)
    assert len(calls) == 1


def test_unconstrained_inputs_take_four_real_products(monkeypatch):
    table = mode_table(DOM, 4.0)
    rng = np.random.default_rng(6)
    w, what = (_random(table, rng, False) for _ in range(2))
    calls = _count_products(monkeypatch)
    table.conv_grid(w, what)
    assert len(calls) == 4


def test_planted_anti_hermitian_part_is_kept():
    """An advected field whose anti-Hermitian part is just above
    ``REAL_TOL`` of its largest coefficient: dropping that part would miss
    the direct sum by far more than roundoff."""
    table = mode_table(DOM, 4.0)
    rng = np.random.default_rng(7)
    w = _random(table, rng, True)
    # a real field on the one wavevector pair +-(1, 0, 1) ...
    row, = table.index.rows_of(np.array([[1, 0, 1]]))
    real = np.zeros((3, table.nk), dtype=complex)
    real[0, row] = 1.0
    real = enforce_reality(SpectralState._of(table.index, real)).array
    # ... plus i times a real field on every wavevector: anti-Hermitian
    spread = _random(table, rng, True)
    amp = (1.5 * REAL_TOL * np.abs(_lab_field(table, real)).max()
           / np.abs(_lab_field(table, spread)).max())
    what = real + 1j * amp * spread
    d = table.conv_direct(w, what)
    dropped = table.conv_grid(w, real)
    tol = 1e-13 * _largest_term(table, w, what)
    assert np.abs(dropped - d).max() > 3 * tol  # the part matters
    assert np.abs(table.conv_grid(w, what) - d).max() <= tol
