"""Oracles, weighted progression sums and the named theorem tasks."""

import pytest

from crankq import congruence, etaq, series, tasks
from crankq.congruence import (ORACLE_CAP, CongruenceFamily, check_progression,
                               colored_partition_oracle, crank_parity_oracle,
                               oracle_rows, solve_24n_condition, weighted_sum)
from crankq.errors import EnumerationCapExceeded, InexactDivision, OrderExceeded
from crankq.etaq import SeriesName, ThetaKind, named_series, theta_sum
from crankq.tasks import run_task, task_ids

from oracles import colored_count, crank_of, crank_parity, enum_partitions


def test_crank_basic_values():
    assert crank_of((4,)) == 4
    assert crank_of((1, 1, 1)) == -3
    assert crank_of((3, 1)) == 0
    assert crank_of(()) == 0


def test_crank_full_enumeration_of_four():
    got = {parts: crank_of(parts) for parts in enum_partitions(4)}
    assert got == {(4,): 4, (3, 1): 0, (2, 2): 2, (2, 1, 1): -2,
                   (1, 1, 1, 1): -4}
    assert all(c % 2 == 0 for c in got.values())
    assert crank_parity_oracle(4)[4] == len(got)


def test_counts_match_enumeration():
    crank, colored = crank_parity_oracle(25), colored_partition_oracle(25)
    assert crank == [crank_parity(n) for n in range(26)]
    assert colored == [colored_count(n) for n in range(26)]


def test_counts_match_series_up_to_cap():
    crank = crank_parity_oracle(ORACLE_CAP)
    colored = colored_partition_oracle(ORACLE_CAP)
    assert len(crank) == len(colored) == ORACLE_CAP + 1
    c, a = named_series("C", ORACLE_CAP + 1), named_series("a", ORACLE_CAP + 1)
    assert [n for n in range(ORACLE_CAP + 1) if crank[n] != c.coeff(n)] == [1]
    assert (crank[1], c.coeff(1)) == (-1, -3)
    assert colored == [a.coeff(n) for n in range(ORACLE_CAP + 1)]


@pytest.mark.parametrize("count", [crank_parity_oracle, colored_partition_oracle])
def test_counts_use_no_series_code(count):
    # the oracles check the series kernel, so they may not be built on it
    kernel = {"series", "etaq"}
    for module in (series, etaq):
        kernel |= {name for name in vars(module) if not name.startswith("__")}
    assert not set(count.__code__.co_names) & kernel


def test_crank_parity_oracle_values():
    values = crank_parity_oracle(4)
    assert values[0] == 1
    assert values[4] == 5
    assert values[4] == named_series("C", 5).coeff(4)
    assert crank_parity_oracle(0) == [1]


def test_crank_parity_anomaly_at_one():
    # the count gives -1 but the generating-function coefficient is -3;
    # the sequence defined by the series is the object under test, so
    # every oracle comparison excludes n = 1
    assert crank_parity_oracle(1)[1] == -1
    assert named_series("C", 2).coeff(1) == -3
    assert crank_parity_oracle(1)[1] == crank_parity(1)
    rows, mismatches = oracle_rows("crank", 1)
    assert rows[1] == {"n": 1, "enumeration": -1, "coefficient": -3}
    assert mismatches == []


def test_colored_oracle_values():
    assert colored_partition_oracle(2) == [1, 3, 7]
    assert colored_partition_oracle(0) == [1]


def test_oracle_caps():
    for which, count in (("crank", crank_parity_oracle),
                         ("colored", colored_partition_oracle)):
        with pytest.raises(EnumerationCapExceeded,
                           match=f"n_max = {ORACLE_CAP + 1} exceeds .* cap {ORACLE_CAP}"):
            oracle_rows(which, ORACLE_CAP + 1)
        for run in (count, lambda n: oracle_rows(which, n)):
            with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
                run(-1)


# ----------------------------------------------------------------------
# weighted sums

def test_weighted_sum_pentagonal_crank_example():
    family = CongruenceFamily(SeriesName.C_CRANK, 5, stride=50, offset=49,
                              weight=ThetaKind.PENT_6K1, scale=25,
                              pre_divisor=5)
    c = named_series("C", 50)
    expected = (c.coeff(49) - 5 * c.coeff(24)) // 5
    assert weighted_sum(family, 0, c) == expected
    assert weighted_sum(family, 0, c) % 5 == 0


def test_weighted_sum_triangular_example():
    family = CongruenceFamily(SeriesName.A_RECIP, 5, stride=25, offset=16,
                              weight=ThetaKind.TRIANGULAR, scale=5)
    a = named_series("a", 17)
    assert weighted_sum(family, 0, a) == a.coeff(16) + a.coeff(11) + a.coeff(1)
    assert family.params()["weight"] == "triangular"


def test_conv_series_against_per_coefficient_sums():
    # dual route: the triangular convolution of the C(5j+4)/5 column
    # versus summing (1/5) C(5n+4 - 5k(k+1)/2) coefficient by coefficient
    family = CongruenceFamily(SeriesName.C_CRANK, 5, stride=5, offset=4,
                              weight=ThetaKind.TRIANGULAR, scale=5,
                              pre_divisor=5)
    f = named_series(SeriesName.F_CONV, 30)
    c = named_series(SeriesName.C_CRANK, family.required_order(29))
    for n in range(30):
        assert weighted_sum(family, n, c) == f.coeff(n)


def test_cap_a_series_against_pentagonal_crank_sums():
    # same dual route for the quotient f_1^2 f_5^6 / f_2^4, whose n-th
    # coefficient is (1/5) sum (1+6k) C(5n+4 - 25k(3k+1)/2)
    family = CongruenceFamily(SeriesName.C_CRANK, 5, stride=5, offset=4,
                              weight=ThetaKind.PENT_6K1, scale=25,
                              pre_divisor=5)
    big_a = named_series(SeriesName.A_CAP, 25)
    c = named_series(SeriesName.C_CRANK, family.required_order(24))
    for n in range(25):
        assert weighted_sum(family, n, c) == big_a.coeff(n)


def test_weighted_squares_bridge_to_cubic_product():
    # alternating-square sums of a over 5n+1 reduce to 3 h(n) mod 5: the
    # route behind the 5p^2-progression vanishing at p = 13, 17, 19, 23
    family = CongruenceFamily(SeriesName.A_RECIP, 5, stride=5, offset=1,
                              weight=ThetaKind.SQUARES, scale=5)
    a = named_series("a", 5 * 60 + 2)
    h = named_series("h", 61)
    for n in range(61):
        assert weighted_sum(family, n, a) % 5 == (3 * h.coeff(n)) % 5


def test_weighted_cubic_bridge():
    # cubic-weighted sums of a over 5n+1 reduce to 3 [q^n] f_2^7/f_1 mod 5
    from crankq.etaq import eta_series
    family = CongruenceFamily(SeriesName.A_RECIP, 5, stride=5, offset=1,
                              weight=ThetaKind.CUBIC_3K1, scale=5)
    a = named_series("a", 5 * 60 + 2)
    target = eta_series({2: 7, 1: -1}, 61)
    for n in range(61):
        assert weighted_sum(family, n, a) % 5 == (3 * target.coeff(n)) % 5


def test_weighted_pentagonal_bridge():
    # pentagonal-weighted sums of a over 5n+1 reduce to 3 [q^n] f_1^6 mod 5
    from crankq.etaq import eta_series
    family = CongruenceFamily(SeriesName.A_RECIP, 5, stride=5, offset=1,
                              weight=ThetaKind.PENT_6K1, scale=5)
    a = named_series("a", 5 * 60 + 2)
    target = eta_series({1: 6}, 61)
    for n in range(61):
        assert weighted_sum(family, n, a) % 5 == (3 * target.coeff(n)) % 5


@pytest.mark.parametrize("scale", [1, 5])
@pytest.mark.parametrize("kind", list(ThetaKind))
def test_weighted_sum_matches_a_sum_over_the_theta_series(kind, scale):
    # the scan reads the terms of the SUMS row directly; the reference
    # expands the theta series below base // scale + 1 and sums over its
    # nonzero terms.  base // scale lands on each of the first exponents
    # of the sum and just below it, at both ends of its window of n.
    a = named_series(SeriesName.A_RECIP, 61 * scale)
    family = CongruenceFamily(SeriesName.A_RECIP, 5, stride=1, offset=0,
                              weight=kind, scale=scale)
    exponents = [e for e, _ in theta_sum(kind, 60).terms()]
    assert len(exponents) >= 5
    for e in exponents[1:]:
        for n in (scale * e, scale * e - 1, scale * e + scale - 1):
            reference = sum(w * a.coeff(n - scale * k)
                            for k, w in theta_sum(kind, n // scale + 1).terms())
            assert weighted_sum(family, n, a) == reference, (e, n)


def test_weighted_sum_degenerate_weight():
    family = CongruenceFamily(SeriesName.A_RECIP, 7, stride=7, offset=2)
    a = named_series("a", 40)
    for n in range(5):
        assert weighted_sum(family, n, a) == a.coeff(7 * n + 2)


def test_weighted_sum_inexact_predivision():
    family = CongruenceFamily(SeriesName.P_PARTITION, 5, stride=1, offset=2,
                              pre_divisor=7)
    with pytest.raises(InexactDivision):
        weighted_sum(family, 0, named_series("p", 3))   # p(2) = 2 is not divisible by 7


def test_weighted_sum_insufficient_order():
    family = CongruenceFamily(SeriesName.A_RECIP, 7, stride=7, offset=2)
    short = named_series("a", 5)
    with pytest.raises(OrderExceeded):
        weighted_sum(family, 3, series=short)


def test_family_validation():
    with pytest.raises(ValueError):
        CongruenceFamily(SeriesName.C_CRANK, 1, stride=5, offset=4)
    with pytest.raises(ValueError):
        CongruenceFamily(SeriesName.C_CRANK, 5, stride=0, offset=4)


# ----------------------------------------------------------------------
# progression scans

def test_check_progression_passes_true_family():
    family = CongruenceFamily(SeriesName.A_RECIP, 7, stride=7, offset=2)
    report = check_progression(family, 60)
    assert report.passed
    assert report.order == 7 * 60 + 2 + 1


def test_check_progression_partition_family_wide_scan():
    family = CongruenceFamily(SeriesName.P_PARTITION, 5, stride=5, offset=4)
    assert check_progression(family, 200).passed


def test_check_progression_rejects_false_family():
    family = CongruenceFamily(SeriesName.A_RECIP, 7, stride=7, offset=3)
    report = check_progression(family, 50)
    assert not report.passed
    assert report.witness is not None and "n" in report.witness
    assert report.witness["residue"] != 0


def test_solve_24n_condition():
    assert solve_24n_condition(0) == (4, 5)
    assert solve_24n_condition(1) == (99, 125)
    assert (24 * 99) % 125 == 1
    with pytest.raises(ValueError):
        solve_24n_condition(-1)


def test_thm11_alpha0_consistent_with_thm12():
    # the exact column identity forces the alpha = 0 divisibility; both
    # views must agree on every tested index
    c = named_series("C", 5 * 120 + 5)
    column = c.extract(5, 4)
    for n in range(120):
        assert column.coeff(n) % 5 == 0
        assert c.coeff(5 * n + 4) % 5 == 0


# ----------------------------------------------------------------------
# multiplicative relations

def test_cooper_hirschhorn_quartic():
    report = run_task("ch-d", n_max=100)
    assert report.passed
    d = named_series("d", 20)
    assert d.coeff(16) == 49 * d.coeff(0) == 49


def test_cooper_hirschhorn_cubic_sign_inference():
    report = run_task("ch-h", p=13, n_max=100)
    assert report.passed
    assert report.params["sign"] == 1
    assert report.params["shift"] == 35


# the sign h(pn + shift) = +-p h(n/p) reads, by the class of p mod 24
_CH_H_SIGN = {13: 1, 17: -1, 19: 1, 23: -1}


@pytest.mark.parametrize("p", [13, 17, 19, 23, 37, 41, 43, 47])
def test_cooper_hirschhorn_other_prime(p):
    # each class twice, so p and p + 24 must read the same sign
    report = run_task("ch-h", p=p, n_max=10, corollary_n_max=0)
    assert report.passed
    assert report.params["sign"] == _CH_H_SIGN[p % 24]


def test_cooper_hirschhorn_preconditions():
    with pytest.raises(ValueError):
        run_task("ch-h", p=5, n_max=10)
    with pytest.raises(ValueError):
        run_task("ch-h", p=25, n_max=10)   # 25 = 1 mod 24 and composite


# ----------------------------------------------------------------------
# witnesses of the failing paths, each forced by one changed coefficient

def _bumped(lookup, name, index, delta):
    """``lookup`` (a ``named_series``) with ``delta`` added at q^index of ``name``."""
    def bumped(key, order):
        got = lookup(key, order)
        if etaq.resolve_name(key) is name:
            got = got + series.Series.monomial(delta, index, got.order)
        return got
    return bumped


@pytest.mark.parametrize("index, delta, witness", [
    (19, 1, {"n": 3, "index": 19, "residue": 1, "alpha": 0}),
    # 349 = 125*2 + 99 is also in the mod-5 class 5n+4, where +5 changes no residue
    (349, 5, {"n": 2, "index": 349, "residue": 5, "alpha": 1}),
], ids=["alpha0", "alpha1"])
def test_thm11_witness_names_its_alpha(monkeypatch, index, delta, witness):
    # check_progression looks C up in congruence, so that is the name patched
    monkeypatch.setattr(congruence, "named_series",
                        _bumped(congruence.named_series, SeriesName.C_CRANK, index, delta))
    report = run_task("thm11")
    assert not report.passed
    assert report.witness == witness


_CH_H_PARAMS = {"sequence": "h", "p": 13, "n_max": 100, "corollary_n_max": 5, "shift": 35}


@pytest.mark.parametrize("index, n_max, witness, sign", [
    (35, 100, {"n": 0, "lhs": 14, "rhs_times_p": 13, "reason": "no consistent sign"}, None),
    (204, 100, {"n": 13, "lhs": -38, "rhs_times_p": -39, "sign": 1}, 1),
    (48, 0, {"n": 0, "r": 1, "index": 48, "value": 1, "reason": "corollary vanishing"}, 1),
], ids=["no-sign", "sign-mismatch", "corollary"])
def test_ch_h_witness_and_sign_param(monkeypatch, index, n_max, witness, sign):
    # a failing report carries the sign param too: None until the sign is read
    monkeypatch.setattr(tasks, "named_series",
                        _bumped(tasks.named_series, SeriesName.H_CH, index, 1))
    report = run_task("ch-h", n_max=n_max)
    assert not report.passed
    assert report.witness == witness
    assert report.params == dict(_CH_H_PARAMS, n_max=n_max, sign=sign)


def test_f52_rejects_an_unknown_selector():
    with pytest.raises(ValueError, match=r"^unknown f52 selector 'both!'$"):
        run_task("f52", which="both!")


# ----------------------------------------------------------------------
# theorem tasks, run through the task registry

def test_theorem_ids_cover_dispatch():
    ids = task_ids()
    for tid in ("thm11", "thm12", "thm13", "thm14", "thm15a", "thm15b",
                "thm16", "cr1", "cr2", "ch-d", "ch-h", "a54", "a51", "f52",
                "smoke5", "smoke7", "smoke11"):
        assert tid in ids


def test_check_theorem_unknown_id():
    with pytest.raises(ValueError, match="unknown task id 'thm99'"):
        run_task("thm99")


def test_check_theorem_single_alpha():
    report = run_task("thm11", alpha=0, n_max=50)
    assert report.passed
    assert report.params["alphas"] == [0]


def test_check_theorem_deterministic_and_idempotent():
    first = run_task("thm13", n_max=4)
    second = run_task("thm13", n_max=4)
    assert first.to_dict(include_timing=False) == second.to_dict(include_timing=False)
    wider = run_task("thm13", n_max=6)
    assert wider.passed == first.passed == True  # noqa: E712


def test_thm16_rejects_bad_prime():
    with pytest.raises(ValueError):
        run_task("thm16", p=11)


def test_cr2_rejects_bad_prime():
    with pytest.raises(ValueError):
        run_task("cr2", p=13)   # 13 = 1 mod 12
