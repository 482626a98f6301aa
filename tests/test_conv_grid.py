"""The direct kernel's pair sum against a per-triple sum built from the
coefficients, the bound on its pair table, and the real-field grid product
against the direct sum, on the cube and on an anisotropic box, for real and
for non-real lab fields."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geobalance import _engine
from geobalance._engine import (_A3, _B3, _G3, PAIR_BYTES, REAL_TOL,
                                ModeTable, mode_table)
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


@functools.lru_cache(maxsize=len(CASES))
def _entries(table):
    """The per-triple table of the direct sum, row by row from the triad
    engine: flat slot indices a * nk + j, b * nk + k, g * nk + l of every
    nonzero coefficient ``coeff``, and the coefficient."""
    n = table.nk
    rows = np.arange(n)
    parts = []
    for jn in range(n):
        K, L = table.closing_rows(jn, rows)
        c = table.coeff(_A3, jn, _B3, K, _G3, L)  # (a, b, g, m)
        a, b, g, m = np.nonzero(c)
        parts.append((a * n + jn, b * n + K[m], g * n + L[m], c[a, b, g, m]))
    return tuple(np.concatenate(x) for x in zip(*parts))


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
    count = sum(table.closing_rows(jn, rows)[0].size for jn in rows)
    assert len(np.unique(p.JK)) == p.J.size == count


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
