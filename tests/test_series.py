"""Arithmetic core: exactness, canonical form and order propagation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crankq.errors import (InexactDivision, NonUnitLeadingCoefficient,
                           OrderExceeded)
from crankq.etaq import eta_series, named_series
from crankq.series import Series

from oracles import naive_euler, naive_inv, partition_count


def f1(order):
    return eta_series({1: 1}, order)


def f2(order):
    return eta_series({2: 1}, order)


# ----------------------------------------------------------------------
# addition

def test_add_cancellation_keeps_min_order():
    a = Series(0, [1, -1, 0, 0], 4)          # 1 - q
    b = Series(1, [1, 0, 0, 0, 0], 6)        # q, known further out
    total = a + b
    assert total == Series.const(1, 4)
    assert total.order == 4


def test_add_zero_is_identity():
    a = f1(12)
    assert (Series.zero(12) + a) == a
    assert (a + Series.zero(12)) == a


def test_add_inverse_gives_canonical_zero():
    a = f1(10)
    total = a + (-a)
    assert total.is_zero()
    assert total.valuation == total.order == 10
    assert total.coeffs == ()


def test_int_lift_adds_constant():
    k = named_series("K", 20)
    assert (k + 1).coeff(0) == k.coeff(0) + 1
    assert (1 + k).coeff(-1) == k.coeff(-1)


# ----------------------------------------------------------------------
# multiplication

def test_mul_geometric_inverse():
    geom = Series(0, [1] * 30, 30)
    one_minus_q = Series(0, [1, -1] + [0] * 28, 30)
    assert (one_minus_q * geom) == Series.const(1, 30)


def test_mul_euler_inverse_is_one():
    a = f1(40)
    assert (a * a.invert()) == Series.const(1, 40)


def test_cube_matches_brute_force_product():
    order = 40
    cube = f1(order) * f1(order) * f1(order)
    brute = naive_euler(1, order)
    from oracles import naive_mul
    brute3 = naive_mul(naive_mul(brute, brute, order), brute, order)
    assert list(cube.coeffs) == brute3[: order]
    # the classical sparse form: weights (-1)^k (2k+1) at k(k+1)/2
    expected = {k * (k + 1) // 2: (-1 if k % 2 else 1) * (2 * k + 1)
                for k in range(9)}
    for e, c in expected.items():
        assert cube.coeff(e) == c


def test_mul_order_propagation_rule():
    a = Series(2, [1, 4, 0], 5)
    b = Series(-1, [1, 2, 3, 4, 5, 6, 7], 6)
    # rule stated once: min(a.val + b.order, b.val + a.order)
    assert (a * b).order == min(2 + 6, -1 + 5)
    assert (a * b).valuation <= 2 + (-1)


def test_mul_by_scalar_and_zero():
    a = f1(9)
    assert (a * 3).coeff(1) == -3
    assert (0 * a).is_zero()
    assert (a * Series.zero(9)).order == 9


# ----------------------------------------------------------------------
# inversion

def test_invert_partition_numbers_match_enumeration():
    inv = f1(10).invert()
    assert [inv.coeff(n) for n in range(10)] == [partition_count(n) for n in range(10)]
    assert [inv.coeff(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_invert_one_is_one():
    assert Series.const(1, 7).invert() == Series.const(1, 7)


def test_invert_non_unit_rejected():
    with pytest.raises(NonUnitLeadingCoefficient):
        Series(0, [2, 1, 0], 3).invert()
    with pytest.raises(NonUnitLeadingCoefficient):
        Series.zero(5).invert()


def test_invert_negative_valuation_and_order_rule():
    k = named_series("K", 30)           # valuation -1
    inv = k.invert()
    assert inv.valuation == 1
    assert inv.order == k.order - 2 * k.valuation
    assert (k * inv).agree(Series.const(1, 25))


def test_invert_against_brute_force():
    order = 25
    series = Series(0, [1, 5, -2, 7, 0, 3] + [0] * (order - 6), order)
    expected = naive_inv([1, 5, -2, 7, 0, 3], order)
    assert list(series.invert().coeffs) == expected


# ----------------------------------------------------------------------
# powers

def test_pow_cube_small_coeffs():
    cube = f1(20) ** 3
    assert [cube.coeff(i) for i in (0, 1, 3, 6)] == [1, -3, 5, -7]


def test_pow_one_and_zero_exponent():
    a = f2(15)
    assert a ** 1 == a
    assert (a ** 0) == Series.const(1, 15)


def test_pow_negative_gives_reciprocal_sequence():
    a = (f1(12) ** -3) * (f2(12) ** 2)
    assert [a.coeff(n) for n in range(3)] == [1, 3, 7]
    assert a.coeff(2) == 7


def test_pow_order_propagation_for_negative_valuation():
    k = named_series("K", 40)
    sq = k * k
    assert sq.valuation == -2
    assert sq.order == k.valuation + k.order
    assert (k ** 3).order == 2 * k.valuation + k.order


# ----------------------------------------------------------------------
# stretch / extract / reduce

def test_stretch_matches_euler_product():
    assert f1(15).stretch(2) == f2(30).truncate(30)
    assert f1(15).stretch(2).order == 30


def test_stretch_identity_and_partition_check():
    a = f1(11)
    assert a.stretch(1) is a
    stretched = f1(25).invert().stretch(5)
    assert stretched.coeff(10) == 2      # partitions of 2


def test_extract_progression_of_partition_numbers():
    col = f1(20).invert().extract(5, 4)
    assert [col.coeff(n) for n in range(3)] == [5, 30, 135]
    assert [partition_count(5 * n + 4) for n in range(3)] == [5, 30, 135]


def test_extract_trivial_and_empty_cases():
    a = f1(14)
    assert a.extract(1, 0) == a
    assert f2(14).extract(2, 1).is_zero()


def test_extract_order_rule():
    a = f1(17)
    col = a.extract(5, 2)
    assert col.order == (17 - 2 + 4) // 5   # ceil((order - r) / m)


def test_reduce_mod_examples():
    col = f1(60).invert().extract(5, 4)
    assert col.reduce_mod(5).is_zero()
    assert Series.const(1, 9).reduce_mod(5) == Series.const(1, 9)
    lhs = (f1(50) ** 5).reduce_mod(5)
    rhs = f1(10).stretch(5).reduce_mod(5)
    assert lhs.agree(rhs)


def test_reduce_mod_canonicalizes_leading_zeros():
    a = Series(0, [5, 1, 10, 3], 4)
    r = a.reduce_mod(5)
    assert r.valuation == 1
    assert list(r.coeffs) == [1, 0, 3]


# ----------------------------------------------------------------------
# coefficient access and misc

def test_coeff_below_valuation_is_zero():
    assert f1(8).coeff(-1) == 0


def test_coeff_beyond_order_raises():
    a = f1(8)
    with pytest.raises(OrderExceeded):
        a.coeff(a.order)


def test_exact_div():
    a = Series(0, [5, -10, 15], 3)
    assert list(a.exact_div(5).coeffs) == [1, -2, 3]
    with pytest.raises(InexactDivision):
        Series(0, [5, 7, 0], 3).exact_div(5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Series(0, [1, 2], 5)
    with pytest.raises(TypeError):
        Series(0, [1.0, 2], 2)
    with pytest.raises(ValueError):
        Series.monomial(1, 5, 5)


@pytest.mark.parametrize("bad, name", [(1.0, "float"), ("1", "str"), (None, "NoneType")])
def test_constructor_names_the_first_non_int_coefficient(bad, name):
    with pytest.raises(TypeError) as info:
        Series(0, [1, 2, bad, 2.5], 4)
    assert str(info.value) == f"coefficients must be int, got {name}"


def test_constructor_copies_any_iterable_once():
    coeffs = [0, 1, -3, 2]
    series = Series(0, coeffs, 4)
    coeffs[1] = 7
    coeffs.append(5)
    assert (series.valuation, series.coeffs, series.order) == (1, (1, -3, 2), 4)
    assert Series(0, (c for c in [0, 1, -3, 2]), 4) == series
    assert Series(0, (0, 1, -3, 2), 4) == series
    assert Series(0, [True, False], 2) == Series(0, [1, 0], 2)


def test_truncate():
    a = f1(20)
    assert a.truncate(7).order == 7
    assert a.truncate(7).coeffs == a.coeffs[:7]
    with pytest.raises(ValueError):
        a.truncate(21)


# ----------------------------------------------------------------------
# property tests

def series_st(min_val=-3, max_val=3, max_len=7):
    def build(val, coeffs):
        return Series(val, coeffs, val + len(coeffs))
    return st.builds(
        build,
        st.integers(min_val, max_val),
        st.lists(st.integers(-9, 9), min_size=1, max_size=max_len),
    )


def unit_st():
    def build(val, lead, rest):
        coeffs = [lead] + rest
        return Series(val, coeffs, val + len(coeffs))
    return st.builds(build, st.integers(-2, 2), st.sampled_from([1, -1]),
                     st.lists(st.integers(-9, 9), min_size=0, max_size=6))


@given(series_st(), series_st(), series_st())
def test_ring_axioms(a, b, c):
    assert ((a + b) + c).agree(a + (b + c))
    assert (a + b).agree(b + a)
    assert (a * b).agree(b * a)
    assert ((a * b) * c).agree(a * (b * c))
    assert (a * (b + c)).agree(a * b + a * c)


@given(unit_st())
def test_unit_inversion_roundtrip(a):
    inv = a.invert()
    prod = a * inv
    one = Series.const(1, max(prod.order, 1))
    assert prod.agree(one)


@given(series_st(), st.sampled_from([2, 5, 7]))
def test_dissection_completeness(a, m):
    total = Series.zero(a.order)
    for r in range(m):
        total = total + a.extract(m, r).stretch(m).shift(r)
    assert total.order >= a.order
    assert total.truncate(a.order) == a


@given(series_st(), st.sampled_from([2, 3, 5, 7]))
def test_extract_of_stretch_roundtrip(a, m):
    assert a.stretch(m).extract(m, 0) == a
    for r in range(1, m):
        assert a.stretch(m).extract(m, r).is_zero()


@given(series_st(), series_st(), st.integers(2, 12))
@settings(max_examples=60)
def test_reduce_mod_is_ring_homomorphism(a, b, m):
    lhs = (a * b).reduce_mod(m)
    rhs = (a.reduce_mod(m) * b.reduce_mod(m)).reduce_mod(m)
    assert lhs.agree(rhs)
    assert (a + b).reduce_mod(m).agree(
        (a.reduce_mod(m) + b.reduce_mod(m)).reduce_mod(m))


@given(series_st(), st.integers(1, 4))
def test_stretch_order_rule(a, m):
    assert a.stretch(m).order == m * a.order


# ----------------------------------------------------------------------
# addition and first_diff against a per-coefficient reference

def operand_st():
    """Series with negative or positive valuations, unequal orders,
    leading zeros that the constructor strips, and zero series."""
    def build(val, coeffs, extra):
        return Series(val, coeffs, val + len(coeffs)) if coeffs else Series.zero(val + extra)
    lists = st.lists(st.sampled_from([0, 0, 1, -1, 7]), max_size=12)
    return st.builds(build, st.integers(-6, 6), lists, st.integers(0, 4))


def coefficient_at(series, n):
    return dict(series.terms()).get(n, 0)


def reference_add(a, b):
    if isinstance(b, int):
        b = Series.const(b, max(a.order, 1))
    order = min(a.order, b.order)
    val = min(a.valuation, b.valuation, order)
    return Series(val, [coefficient_at(a, n) + coefficient_at(b, n)
                        for n in range(val, order)], order)


def reference_first_diff(a, b):
    limit = min(a.order, b.order)
    return next((n for n in range(min(a.valuation, b.valuation, limit), limit)
                 if coefficient_at(a, n) != coefficient_at(b, n)), None)


@given(operand_st(), operand_st() | st.integers(-3, 3))
@settings(max_examples=200)
def test_add_matches_per_coefficient_reference(a, b):
    assert a + b == reference_add(a, b)
    assert b + a == reference_add(a, b)


@given(operand_st(), operand_st(), st.data())
@settings(max_examples=200)
def test_first_diff_matches_per_coefficient_reference(a, b, data):
    # also b equal to a up to one changed coefficient
    if a.coeffs and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(a.coeffs) - 1))
        changed = list(a.coeffs)
        changed[i] += data.draw(st.sampled_from([1, -1]))
        b = Series(a.valuation, changed, a.order)
    assert a.first_diff(b) == reference_first_diff(a, b)
    assert b.first_diff(a) == reference_first_diff(a, b)


def reference_extract(a, m, r):
    order = -(-(a.order - r) // m)
    low = min((a.valuation - r) // m, order)
    return Series(low, [coefficient_at(a, m * n + r) for n in range(low, order)], order)


@given(operand_st(), st.integers(1, 7))
@settings(max_examples=200)
def test_extract_matches_per_coefficient_reference(a, m):
    for r in range(m):
        assert a.extract(m, r) == reference_extract(a, m, r)


# ----------------------------------------------------------------------
# printing

@pytest.mark.parametrize("series, text", [
    (Series.zero(5), "O(q^5)"),
    (Series(-1, [-1, 1, -1, 3, 0, -2, 0], 6),
     "-q^-1 + 1 - q + 3*q^2 - 2*q^4 + O(q^6)"),
    (Series(0, [-5, 0, 1, 0], 4), "-5 + q^2 + O(q^4)"),
    (Series(0, [1] * 10 + [0, 0], 12),
     "1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7 + q^8 + q^9 + O(q^12)"),
    (Series(0, [1] * 11 + [0], 12),
     "1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7 + q^8 + q^9 + ... + O(q^12)"),
    (Series(1, [2, -1] * 5 + [7, 0, 0], 14),
     "2*q - q^2 + 2*q^3 - q^4 + 2*q^5 - q^6 + 2*q^7 - q^8 + 2*q^9 - q^10"
     " + ... + O(q^14)"),
])
def test_str_prints_signed_terms_and_the_order(series, text):
    # the first ten nonzero terms, ascending, then "..." when more follow
    assert str(series) == text
    assert repr(series) == text
