"""Sparse-factor passes against the naive oracles and the dense route.

Every eta quotient, R(q) and P(m,n) evaluation the package builds goes
through ``series.sparse_pass``; these tests compare the kernel and what
is built on it, coefficient for coefficient, with
``tests/oracles.py`` and with a local copy of the dense route (powers of
whole series and ``Series.invert``) that the passes replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crankq.etaq import eta_series, rr_stretch, theta_terms
from crankq.kalgebra import KPolynomial, eval_at_K, pmn, pmn_series
from crankq.series import Series, sparse_pass

from oracles import (RR_TERMS, naive_euler, naive_inv, naive_mul, naive_pow,
                     naive_residue_product)

DIFF = settings(max_examples=40, deadline=None)


@st.composite
def sparse_factor(draw):
    """A dense list of length n and the terms of some 1 + sum c q^k, with
    exponents allowed past the list's end."""
    n = draw(st.integers(1, 60))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    ks = sorted(draw(st.sets(st.integers(1, n + 5), max_size=8)))
    cs = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=len(ks),
                       max_size=len(ks)))
    return coeffs, list(zip(ks, cs))


def dense_of(terms, n):
    out = [1] + [0] * (n - 1)
    for k, c in terms:
        if k < n:
            out[k] = c
    return out


@given(sparse_factor(), st.integers(1, 3))
@DIFF
def test_multiply_pass_matches_naive_product(case, e):
    coeffs, terms = case
    n = len(coeffs)
    got = list(coeffs)
    sparse_pass(got, terms, e)
    assert got == naive_mul(coeffs, naive_pow(dense_of(terms, n), e, n), n)


@given(sparse_factor(), st.integers(1, 3))
@DIFF
def test_divide_pass_matches_naive_inverse(case, e):
    coeffs, terms = case
    n = len(coeffs)
    got = list(coeffs)
    sparse_pass(got, terms, -e)
    inverse = naive_pow(naive_inv(dense_of(terms, n), n), e, n)
    assert got == naive_mul(coeffs, inverse, n)


@given(sparse_factor(), st.integers(1, 3))
@DIFF
def test_divide_after_multiply_round_trips(case, e):
    coeffs, terms = case
    got = list(coeffs)
    sparse_pass(got, terms, e)
    sparse_pass(got, terms, -e)
    assert got == coeffs


def test_zero_power_is_no_pass():
    coeffs = [3, 1, 4, 1, 5]
    sparse_pass(coeffs, [(1, -1), (2, 7)], 0)
    assert coeffs == [3, 1, 4, 1, 5]


def test_theta_terms_of_f1_are_pentagonal():
    assert theta_terms(3, 1, 27) == [(1, -1), (2, -1), (5, 1), (7, 1),
                                     (12, -1), (15, -1), (22, 1), (26, 1)]
    for p, r in [(0, 0), (5, 5), (5, -1), (4, 1)]:
        with pytest.raises(ValueError):
            theta_terms(p, r, 10)


# ----------------------------------------------------------------------
# eta quotients and R(q)

def naive_eta(exponents, n):
    """prod f_m^e below q^n, from the naive oracles only."""
    out = [1] + [0] * (n - 1)
    for m, e in exponents.items():
        f = naive_euler(m, n)
        out = naive_mul(out, naive_pow(f if e > 0 else naive_inv(f, n), abs(e), n), n)
    return out


@given(st.dictionaries(st.integers(1, 12), st.integers(-6, 6).filter(bool),
                       max_size=3),
       st.integers(-5, 5), st.integers(1, 120))
@DIFF
def test_eta_quotient_matches_naive_product(exponents, shift, width):
    order = shift + width
    got = eta_series(exponents, order, shift)
    assert got.order == order
    assert [got.coeff(shift + i) for i in range(width)] == naive_eta(exponents, width)
    assert got.valuation >= shift


@pytest.mark.parametrize("m", [2, 3, 5])
def test_rr_stretch_matches_naive_residue_product(m):
    # R(q^m) directly as a residue product mod 5m
    terms = [(m * r, e) for r, e in RR_TERMS]
    got = rr_stretch(m, 200)
    assert got.order == 200
    assert [got.coeff(n) for n in range(200)] == naive_residue_product(5 * m, terms, 200)


# ----------------------------------------------------------------------
# P(m, n) and K against the dense route the passes replaced

def naive_r(m, n):
    """R(q^m) below q^n as a Series, from the naive residue product."""
    return Series(0, naive_residue_product(5 * m, [(m * r, e) for r, e in RR_TERMS], n), n)


def dense_pmn_series(m, n, order):
    window = order + 2 * m
    t = ((naive_r(1, window) ** (m + 2 * n)) * (naive_r(2, window) ** (2 * m - n))).shift(m)
    signed = t if (m + n) % 2 == 0 else -t
    return (t.invert() + signed).truncate(order)


def dense_eval_at_K(p, order):
    if not p:
        return Series.zero(order)
    degrees = p.degrees()
    window = order + max(degrees[-1] - 1, 0)
    k_series = Series(-1, naive_eta({1: -1, 2: 1, 5: 5, 10: -5}, window + 1), window)
    k_inv = k_series.invert() if degrees[0] < 0 else None
    total = Series.zero(order)
    for d, c in p.items():
        if d == 0:
            piece = Series.const(c, window)
        elif d > 0:
            piece = (k_series ** d) * c
        else:
            piece = (k_inv ** (-d)) * c
        total = total + piece
    return total.truncate(order)


# the grid of the registry task pmn-eval
PMN_GRID = [(m, n) for m in range(5) for n in range(-3, 4)]


@pytest.mark.parametrize("m, n", PMN_GRID)
def test_pmn_series_matches_dense_route(m, n):
    for order in (m + 1, m + 2, 7, 90):
        assert pmn_series(m, n, order) == dense_pmn_series(m, n, order)


@pytest.mark.parametrize("m, n", PMN_GRID)
def test_eval_at_K_matches_dense_route(m, n):
    p = pmn(m, n)
    for order in (1, 2, 3, 7, 90):
        assert eval_at_K(p, order) == dense_eval_at_K(p, order)


@pytest.mark.parametrize("p", [KPolynomial({-3: 2}), KPolynomial({-5: 1, -1: 3}),
                               KPolynomial({-2: 1, 3: -2}), KPolynomial({4: -1}),
                               KPolynomial({0: 7}), KPolynomial()])
def test_eval_at_K_at_orders_up_to_the_degree(p):
    # orders at or below |d| leave a negative-degree term K^d = O(q^|d|)
    # wholly above the window
    for order in range(1, 8):
        assert eval_at_K(p, order) == dense_eval_at_K(p, order)

