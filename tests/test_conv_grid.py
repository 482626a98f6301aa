"""The direct kernel's pair sum against a per-triple sum built from the
coefficients, the bound on its pair table, and the divergence-form grid
product (on fields shared by a self-product, or on two operands' fields)
against the direct sum, on the cube and on an anisotropic box, for real
and for non-real lab fields."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geobalance import _engine
from geobalance._engine import (_A3, _B3, _G3, PAIR_BYTES, PAIR_PRODUCTS,
                                REAL_TOL, SELF_PRODUCTS, ModeTable,
                                mode_table)
from geobalance.lattice import DomainSpec, SpectralState, enforce_reality

DOM = DomainSpec()
BOX = DomainSpec(2.0 * math.pi, 4.0, 3.0)
# kmax 4 on the cube gives 15 grid points per axis: an odd transform length
CASES = [(DOM, 2.5), (DOM, 4.0), (BOX, 2.5)]


def _random(table, rng, constrained):
    """Gaussian slot array; fast slots at l3 = 0 stay zero.  Projected onto
    the reality-constraint set when ``constrained``."""
    w = rng.normal(size=(3, table.nk)) + 1j * rng.normal(size=(3, table.nk))
    w[1:, ~table.fast_ok] = 0.0
    if constrained:
        w = enforce_reality(SpectralState._of(table.index, w)).array
    return w


@functools.lru_cache(maxsize=len(CASES))
def _entries(table):
    """The per-triple table of the direct sum from the triad engine: flat
    slot indices a * nk + j, b * nk + k, g * nk + l of every nonzero
    coefficient ``coeff``, and the coefficient."""
    n = table.nk
    rows = np.arange(n)
    J, K, L = table.closing_pairs(rows, rows)
    c = table.coeff(_A3, J, _B3, K, _G3, L)  # (a, b, g, m)
    a, b, g, m = np.nonzero(c)
    return a * n + J[m], b * n + K[m], g * n + L[m], c[a, b, g, m]


def _triad_terms(table, w, what):
    """Every nonzero triad term of the direct sum, and its output slot."""
    jj, kk, ll, cc = _entries(table)
    return cc * w.reshape(-1)[jj] * what.reshape(-1)[kk], ll


def _largest_term(table, w, what):
    """Largest single triad term of the direct sum."""
    return float(np.abs(_triad_terms(table, w, what)[0]).max())


@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 32 - 1),
       constrained=st.booleans())
@settings(max_examples=30, deadline=None)
def test_pair_kernel_equals_per_triple_sum(case, seed, constrained):
    table = mode_table(*case)
    rng = np.random.default_rng(seed)
    w, what = (_random(table, rng, constrained) for _ in range(2))
    terms, ll = _triad_terms(table, w, what)
    n = 3 * table.nk
    want = (np.bincount(ll, weights=terms.real, minlength=n)
            + 1j * np.bincount(ll, weights=terms.imag, minlength=n))
    err = np.abs(table.conv_direct(w, what) - want.reshape(3, -1)).max()
    assert err <= 1e-13 * np.abs(terms).max()


def test_pair_table_holds_every_closing_pair_once():
    table = mode_table(DOM, 4.0)
    p = table.pairs()
    assert all(a.dtype == np.int32 for a in (p.J, p.K, p.L, p.JK))
    assert (table.ints[p.J] + table.ints[p.K] == table.ints[p.L]).all()
    assert np.array_equal(p.JK, p.J * table.nk + p.K)
    rows = np.arange(table.nk)
    count = table.closing_pairs(rows, rows)[0].size
    assert len(np.unique(p.JK)) == p.J.size == count


def test_pair_table_does_not_depend_on_the_block_size(monkeypatch):
    """One-row blocks and one whole-table block collect the same pairs."""
    nk = mode_table(DOM, 4.0).nk
    tables = []
    for block in (1, nk * nk):
        monkeypatch.setattr(_engine, "TRIAD_BLOCK", block)
        tables.append(ModeTable(DOM, 4.0).pairs())
    for a, b in zip(*tables):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_pair_table_over_the_byte_bound_raises(monkeypatch):
    """The bound is checked while the pairs are collected: a budget one
    byte short of a table and its call arrays raises ``MemoryError``
    naming nk and the projected bytes, and builds nothing."""
    nk, m = 256, mode_table(DOM, 4.0).pairs().J.size
    need = 16 * nk * nk + PAIR_BYTES * m
    monkeypatch.setattr(_engine, "DIRECT_MAX_BYTES", need)
    assert ModeTable(DOM, 4.0).pairs().J.size == m
    w = _random(mode_table(DOM, 4.0), np.random.default_rng(1), True)
    for budget in (need - 1, need // 2):
        monkeypatch.setattr(_engine, "DIRECT_MAX_BYTES", budget)
        table = ModeTable(DOM, 4.0)
        with pytest.raises(MemoryError, match="nk = 256 modes") as err:
            table.conv_direct(w, w)
        projected = int(re.search(r"about ([\d,]+) bytes",
                                  str(err.value))[1].replace(",", ""))
        assert projected > budget
        assert table._triads is None


def _lab_field(table, what):
    return np.einsum("an,anc->cn", what, table.X)


def _adv_field(table, w):
    return np.einsum("an,anc->cn", w, table.VX)


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
    """The product list of every call of the grid product routine."""
    calls = []
    product = ModeTable._divergence

    def counted(self, f, products):
        calls.append(products)
        return product(self, f, products)

    monkeypatch.setattr(ModeTable, "_divergence", counted)
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


def _planted(table, rng, field):
    """A real state on the one wavevector pair +-(1, 0, 1), alone and plus
    i times a real state on every wavevector: an anti-Hermitian part whose
    lab field ``field`` is just above ``REAL_TOL`` of the real part's."""
    row, = table.index.rows_of(np.array([[1, 0, 1]]))
    real = np.zeros((3, table.nk), dtype=complex)
    real[0, row] = 1.0
    real = enforce_reality(SpectralState._of(table.index, real)).array
    spread = _random(table, rng, True)
    amp = (1.5 * REAL_TOL * np.abs(field(table, real)).max()
           / np.abs(field(table, spread)).max())
    return real, real + 1j * amp * spread


def test_planted_anti_hermitian_part_is_kept():
    """An advected field whose anti-Hermitian part is just above
    ``REAL_TOL`` of its largest coefficient: dropping that part would miss
    the direct sum by far more than roundoff."""
    table = mode_table(DOM, 4.0)
    rng = np.random.default_rng(7)
    w = _random(table, rng, True)
    real, what = _planted(table, rng, _lab_field)
    d = table.conv_direct(w, what)
    dropped = table.conv_grid(w, real)
    tol = 1e-13 * _largest_term(table, w, what)
    assert np.abs(dropped - d).max() > 3 * tol  # the part matters
    assert np.abs(table.conv_grid(w, what) - d).max() <= tol


def test_planted_anti_hermitian_advecting_part_is_kept():
    """The mirror case: the advecting velocity has the anti-Hermitian part
    just above ``REAL_TOL`` of its own largest coefficient, far below that
    of the advected field, so only a realness test per operand keeps it."""
    table = mode_table(DOM, 4.0)
    rng = np.random.default_rng(7)
    what = _random(table, rng, True)
    real, w = _planted(table, rng, _adv_field)
    d = table.conv_direct(w, what)
    dropped = table.conv_grid(real, what)
    tol = 1e-13 * _largest_term(table, w, what)
    assert np.abs(dropped - d).max() > 3 * tol  # the part matters
    assert np.abs(table.conv_grid(w, what) - d).max() <= tol


@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 32 - 1),
       constrained=st.booleans())
@settings(max_examples=30, deadline=None)
def test_self_product_equals_direct(case, seed, constrained):
    """The same array twice: the shared fields when the lab fields are
    real, the split over both operands' fields otherwise."""
    table = mode_table(*case)
    c = _random(table, np.random.default_rng(seed), constrained)
    d = table.conv_direct(c, c)
    g = table.conv_grid(c, c)
    assert np.abs(g - d).max() <= 1e-13 * _largest_term(table, c, c)


@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_divergence_form_equals_advective_form(case, seed):
    """The self-product on its four shared fields against the same product
    of two equal operands on their six unshared fields."""
    table = mode_table(*case)
    c = _random(table, np.random.default_rng(seed), True)
    div = table.conv_grid(c, c)
    adv = table.conv_grid(c, c.copy())
    assert np.abs(div - adv).max() <= 1e-13 * _largest_term(table, c, c)


def test_planted_anti_hermitian_self_product_is_kept():
    """A self-product whose lab fields have an anti-Hermitian part just
    above ``REAL_TOL``: the shared-field product, which assumes real
    fields, must give way to the exact split."""
    table = mode_table(DOM, 4.0)
    rng = np.random.default_rng(8)
    real = _random(table, rng, True)
    spread = _random(table, rng, True)
    amp = (3 * REAL_TOL * np.abs(_lab_field(table, real)).max()
           / np.abs(_lab_field(table, spread)).max())
    c = real + 1j * amp * spread
    d = table.conv_direct(c, c)
    tol = 1e-13 * _largest_term(table, c, c)
    assert np.abs(table.conv_grid(real, real) - d).max() > 3 * tol
    assert np.abs(table.conv_grid(c, c) - d).max() <= tol


def _count_transforms(monkeypatch):
    calls = {"fftn": 0, "ifftn": 0, "rfftn": 0, "irfftn": 0}
    for name in calls:
        def counted(*args, _f=getattr(np.fft, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_constrained_self_product_takes_six_transforms(monkeypatch):
    """Two real fields per complex transform: u1, u2, u3 and rho in 2
    inverse transforms, the 8 distinct products u_d F_c in 4 forward.
    Distinct operands take their 6 fields in 3 and their 9 products in 5."""
    table = mode_table(DOM, 4.0)
    c = _random(table, np.random.default_rng(9), True)
    table.conv_grid(c, c)  # grid set-up
    calls = _count_transforms(monkeypatch)
    products = _count_products(monkeypatch)
    table.conv_grid(c, c)
    assert calls == {"fftn": 4, "ifftn": 2, "rfftn": 0, "irfftn": 0}
    assert products == [SELF_PRODUCTS]
    table.conv_grid(c, c.copy())
    assert products == [SELF_PRODUCTS, PAIR_PRODUCTS]
    assert calls == {"fftn": 9, "ifftn": 5, "rfftn": 0, "irfftn": 0}
