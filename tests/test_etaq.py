"""Eta quotients, R(q) and the named-series registry."""

import pytest

from crankq import tasks
from crankq.errors import InexactDivision
from crankq.etaq import (EtaQuotientSpec, SeriesName, apply_factors, eta_quotient,
                         eta_series, factor_product, named_series, parse_quotient,
                         rr_series, rr_stretch)
from crankq.series import Series
from crankq.tasks import run_task

from oracles import (RR_TERMS, colored_count, naive_euler, naive_mul,
                     naive_residue_product)


def test_euler_product_matches_binomial_expansion():
    got = eta_series({1: 1}, 13)
    assert list(got.coeffs) == naive_euler(1, 13)
    assert list(got.coeffs) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


@pytest.mark.parametrize("m", [2, 5, 7, 10, 25, 50])
def test_fm_is_stretched_f1(m):
    order = 210
    assert eta_series({m: 1}, order).agree(eta_series({1: 1}, 30).stretch(m))


def test_quotient_against_brute_force():
    order = 60
    got = eta_series({1: 2, 2: -1}, order)
    brute = naive_mul(naive_euler(1, order), naive_euler(1, order), order)
    from oracles import naive_inv
    brute = naive_mul(brute, naive_inv(naive_euler(2, order), order), order)
    assert list(got.coeffs) == brute


def test_empty_spec_is_one():
    assert eta_quotient(EtaQuotientSpec(), 9) == Series.const(1, 9)


def test_shift_and_precondition():
    k_spec = EtaQuotientSpec.make({1: -1, 2: 1, 5: 5, 10: -5}, shift=-1)
    k = eta_quotient(k_spec, 25)
    assert k.valuation == -1 and k.coeff(-1) == 1
    with pytest.raises(ValueError):
        eta_quotient(EtaQuotientSpec.make({1: 1}, shift=5), 5)


def test_spec_validation():
    with pytest.raises(ValueError):
        EtaQuotientSpec(factors=((0, 1),))
    with pytest.raises(ValueError):
        EtaQuotientSpec(factors=((2, 0),))
    with pytest.raises(ValueError):
        EtaQuotientSpec(factors=((2, 1), (2, 3)))
    # make() merges duplicates instead
    assert EtaQuotientSpec.make([(2, 1), (2, 3)]).factors == ((2, 4),)


# ----------------------------------------------------------------------
# residue products: the naive copy in oracles.py against the factor builds

def test_residue_product_empty_is_one():
    assert naive_residue_product(5, [], 8) == [1] + [0] * 7
    assert factor_product([], 8) == Series.const(1, 8)


def test_residue_product_full_classes_give_euler_product():
    naive = naive_residue_product(2, [(1, 1), (2, 1)], 40)
    assert naive == naive_euler(1, 40)
    assert list(eta_series({1: 1}, 40).coeffs) == naive


def test_rr_series_small_expansion():
    # 1/(R) - q - q^2 R reproduces f_1/f_25 after stretching by 5
    r5 = rr_stretch(5, 150)
    bracket = r5.invert() - Series.monomial(1, 1, 150) - r5.shift(2)
    assert (eta_series({25: 1}, 150) * bracket).agree(eta_series({1: 1}, 150))
    assert [rr_series(11).coeff(n) for n in range(11)] == [1, -1, 1, 0, -1, 1, -1, 1, 0, -1, 2]
    assert list(rr_series(400).coeffs) == naive_residue_product(5, RR_TERMS, 400)


# ----------------------------------------------------------------------
# named series

def test_crank_parity_series_values():
    c = named_series(SeriesName.C_CRANK, 6)
    assert [c.coeff(n) for n in range(6)] == [1, -3, 2, -1, 5, -5]


def test_reciprocal_series_counts_colored_partitions():
    a = named_series("a", 21)
    assert [a.coeff(n) for n in range(3)] == [1, 3, 7]
    assert [a.coeff(n) for n in range(21)] == [colored_count(n) for n in range(21)]


def test_named_reciprocity():
    order = 120
    c = named_series("C", order)
    a = named_series("a", order)
    assert (c * a).agree(Series.const(1, order))


def test_partition_series_monotone():
    p = named_series("p", 200)
    values = [p.coeff(n) for n in range(200)]
    assert all(v > 0 for v in values)
    assert all(values[n + 1] >= values[n] for n in range(1, 199))


def test_quartic_product_vanishing_values():
    d = named_series("d", 20)
    assert d.coeff(2) == 0 and d.coeff(9) == 0
    assert d.coeff(16) == 49


def test_conv_series_equals_its_eta_quotient():
    f = named_series("f", 40)
    assert f.agree(eta_series({1: 1, 5: 1, 10: 2, 2: -2}, 40))


def test_conv_series_exact_division_guard():
    # the guard itself: a column with a non-multiple of 5 raises
    with pytest.raises(InexactDivision):
        named_series("C", 10).exact_div(5)


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        named_series("nope", 10)
    with pytest.raises(ValueError):
        named_series("C", 0)


# ----------------------------------------------------------------------
# binomial congruence

def test_binomial_congruence_base_cases():
    assert run_task("binom", order=200, pairs=((1, 1),)).passed
    assert run_task("binom", order=150, pairs=((2, 2),)).passed
    assert run_task("binom", order=150, pairs=((1, 2),)).passed


def test_binomial_congruence_witness_machinery():
    # corrupt one coefficient of the congruent pair; the comparison the
    # checker runs must pinpoint the exponent
    lhs = eta_series({1: 5}, 60) + Series.monomial(1, 7, 60)
    rhs = eta_series({5: 1}, 60)
    assert lhs.reduce_mod(5).first_diff(rhs.reduce_mod(5)) == 7


def test_binomial_congruence_witness_names_its_pair(monkeypatch):
    # +1 at q^7 of f_2^5: the pair (1, 1) holds, and (2, 1) fails there
    def bumped(factors, order):
        got = eta_series(factors, order)
        return got + Series.monomial(1, 7, order) if factors == {2: 5} else got
    monkeypatch.setattr(tasks, "eta_series", bumped)
    report = run_task("binom")
    assert not report.passed
    assert report.params == {"m": 2, "k": 1, "modulus": 5}
    assert report.witness == {"exponent": 7, "lhs": 1, "rhs": 0}


def test_binomial_congruence_validation():
    with pytest.raises(ValueError):
        run_task("binom", order=50, pairs=((0, 1),))
    with pytest.raises(ValueError):
        run_task("binom", order=50, pairs=((1, 0),))


@pytest.mark.parametrize("build, args, m", [
    (rr_stretch, (-1, 10), -1),
    (rr_stretch, (0, 10), 0),
    (factor_product, ([("eta", -1, 1)], 10), -1),
    (apply_factors, ([1, 0, 0], [("eta", 0, 1)]), 0),
], ids=["rr_stretch-1", "rr_stretch-0", "factor_product-1", "apply_factors-0"])
def test_a_factor_stretched_below_one_is_rejected(build, args, m):
    # no sum is a series at q -> q^m for m < 1, whichever entry point reads it
    with pytest.raises(ValueError, match=f"stretch factor must be >= 1, got {m}$"):
        build(*args)


# ----------------------------------------------------------------------
# text format

def test_parse_quotient_k_parameter():
    spec = parse_quotient("q^-1 * f2^1 * f5^5 * f1^-1 * f10^-5")
    assert spec.shift == -1
    assert dict(spec.factors) == {1: -1, 2: 1, 5: 5, 10: -5}


def test_parse_quotient_whitespace_and_default_exponent():
    spec = parse_quotient("  f1^3*f2 ^ -2 ")
    assert dict(spec.factors) == {1: 3, 2: -2}
    assert parse_quotient("f7").factors == ((7, 1),)


def test_parse_quotient_errors():
    for bad in ("", "f1^", "g3", "q^", "f1 + f2", "f1^2^3"):
        with pytest.raises(ValueError):
            parse_quotient(bad)


def test_named_series_concurrent_readers():
    import threading

    from crankq.etaq import clear_cache

    clear_cache()
    results = [None] * 8
    def worker(i):
        results[i] = named_series("C", 150)
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    baseline = results[0]
    assert all(r == baseline for r in results)
    assert [baseline.coeff(n) for n in range(6)] == [1, -3, 2, -1, 5, -5]


def test_interleaved_extensions_from_many_threads(monkeypatch):
    # 8 threads grow C and R from an empty cache at interleaved orders;
    # every result equals a fresh build truncated to the order asked for
    import sys
    import threading

    from crankq import etaq

    monkeypatch.setattr(etaq, "_CACHE", {})
    top = 2520
    fresh = {"C": eta_quotient(etaq.NAMED_SPECS[SeriesName.C_CRANK], top),
             "R": rr_stretch(1, top)}
    fetch = {"C": lambda n: named_series("C", n), "R": rr_series}
    orders = [150, 400, 1000, 2520]
    results = [[] for _ in range(8)]

    def worker(i):
        for j in range(len(orders)):
            key = "CR"[(i + j) % 2]
            order = orders[(i + j) % len(orders)]
            results[i].append((key, order, fetch[key](order)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(len(got) == len(orders) for got in results)
    for got in results:
        for key, order, series in got:
            assert series == fresh[key].truncate(order), (key, order)
