"""Symbolic K algebra, the P(m,n) system and symbol/series agreement."""

import pytest

from crankq import kalgebra, tasks
from crankq.kalgebra import K, KPolynomial, combo_sides, eval_at_K, pmn, pmn_series
from crankq.series import Series

FOUR_K_INV = KPolynomial({-1: 4})


def test_kpoly_product_expansion():
    assert (K - 4) * (K + 1) == KPolynomial({2: 1, 1: -3, 0: -4})


def test_kpoly_add_zero_and_scale():
    x = KPolynomial({3: 2, -1: 5})
    assert x + KPolynomial.zero() == x
    assert 4 * KPolynomial.monomial(1, -1) == FOUR_K_INV


def test_kpoly_rendering_decreasing_degree():
    assert str(KPolynomial({2: 1, 0: 2})) == "K^2 + 2"
    assert str(pmn(1, -1)) == "K - 2 + 4*K^-1"
    assert str(KPolynomial()) == "0"
    assert str(KPolynomial({-1: 4})) == "4*K^-1"
    assert str(KPolynomial({1: -1, 0: 3})) == "-K + 3"


def test_kpoly_validation_and_merging():
    with pytest.raises(TypeError):
        KPolynomial({0: 1.5})
    assert KPolynomial([(1, 2), (1, -2)]) == KPolynomial.zero()


def test_pmn_seed_values():
    assert pmn(0, 0) == KPolynomial.const(2)
    assert pmn(0, 1) == FOUR_K_INV
    assert pmn(1, 0) == K
    assert pmn(1, -1) == KPolynomial({-1: 4, 0: -2, 1: 1})


def test_pmn_derived_values():
    assert pmn(0, -1) == KPolynomial({-1: -4})
    assert pmn(2, 0) == KPolynomial({2: 1, 0: 2})


def test_pmn_rejects_negative_m():
    with pytest.raises(ValueError):
        pmn(-1, 0)


def test_recurrences_close_on_grid():
    for tid in ("rec35", "rec36"):
        report = tasks.run_task(tid)
        assert report.passed and report.task == tid


def test_recurrence_witness_names_its_step(monkeypatch):
    # P(2, 1) zeroed: each id's own step relation fails first where it
    # reads that point, m-major
    true_pmn = tasks.pmn
    monkeypatch.setattr(tasks, "pmn",
                        lambda m, n: KPolynomial() if (m, n) == (2, 1) else true_pmn(m, n))
    assert tasks.run_task("rec35").witness == {"recurrence": "n-step", "m": 2, "n": 0}
    assert tasks.run_task("rec36").witness == {"recurrence": "m-step", "m": 0, "n": 1}


def test_a_wrong_seed_fails_combo456_and_pmn_eval(monkeypatch):
    # K^2 added to the seed P(1, -1).  pmn builds every P(m, n) from the
    # seeds with the very recurrences that rec35 and rec36 check, so
    # those two pass for any seed; the combination identity and the
    # direct R-series evaluation are what catch a wrong one
    seeds = dict(kalgebra._PMN_SEEDS)
    seeds[(1, -1)] = seeds[(1, -1)] + K * K
    monkeypatch.setattr(kalgebra, "_PMN_CACHE", seeds)
    combo = tasks.run_task("combo456")
    assert not combo.passed and combo.witness["check"] == "symbolic"
    assert tasks.run_task("pmn-eval").witness == {
        "m": 1, "n": -3, "exponent": -2, "symbolic": 1, "direct": 0}


def test_recurrence_spot_checks():
    m, n = 3, -2
    assert pmn(m, n + 1) == FOUR_K_INV * pmn(m, n) + pmn(m, n - 1)
    assert pmn(m + 2, n) == K * pmn(m + 1, n) + pmn(m, n)


# ----------------------------------------------------------------------
# series evaluation

def test_pmn_series_constant_case():
    assert pmn_series(0, 0, 40).agree(Series.const(2, 40))


def test_pmn_series_matches_seed_polynomials():
    for (m, n) in [(1, 0), (1, -1), (0, 1)]:
        direct = pmn_series(m, n, 80)
        symbolic = eval_at_K(pmn(m, n), 80)
        assert direct.first_diff(symbolic) is None


def test_eval_at_zero_polynomial():
    assert eval_at_K(KPolynomial.zero(), 12).is_zero()


def test_eval_matches_eta_quotient_for_k_plus_one():
    from crankq.etaq import eta_series
    got = eval_at_K(K + 1, 90)
    assert got.agree(eta_series({1: -2, 2: 4, 5: 2, 10: -4}, 90, shift=-1))


def test_series_agreement_grid():
    assert tasks.run_task("pmn-eval", order=100).passed


def test_combo_identity_symbolic_and_numeric():
    report = tasks.run_task("combo456", order=100)
    assert report.passed


def test_combo_identity_corruption_detected():
    lhs_bad = (-pmn(3, -2) + 2 * pmn(3, -1) - 10 * pmn(2, -1)
               - 16 * pmn(1, -1) + 26 * pmn(1, 0) - 15)
    rhs = ((K - 4) ** 2 * (K + 1) * (K * K - 3 * K + 1)
           * KPolynomial.monomial(1, -2))
    assert lhs_bad != rhs


def test_combo_points_lie_in_the_pmn_eval_grid(monkeypatch):
    # combo456 compares its sides only as polynomials in K; pmn-eval
    # checks each P(m, n) that the combination reads against the direct
    # R-series evaluation
    read = []
    true_pmn = kalgebra.pmn
    monkeypatch.setattr(kalgebra, "pmn", lambda m, n: read.append((m, n)) or true_pmn(m, n))
    combo_sides()
    assert sorted(set(read)) == [(1, -1), (1, 0), (2, -1), (3, -2), (3, -1)]
    grid = tasks.PMN_GRID
    assert all(0 <= m <= grid["m_max"] and grid["n_min"] <= n <= grid["n_max"]
               for m, n in read)
    # the task, at its defaults, checks that grid
    monkeypatch.undo()
    assert tasks.run_task("pmn-eval").params == grid


def test_micro_identities():
    assert 1 + pmn(0, -1) == (K - 4) * KPolynomial.monomial(1, -1)
    assert 1 - 2 * pmn(0, -1) - 2 * pmn(1, 0) == KPolynomial({-1: 8, 0: 1, 1: -2})


def test_degree_parity_is_not_an_invariant():
    # P(m,n) degrees do NOT all satisfy d = m mod 2: P(0,1) = 4 K^-1 is
    # a counterexample, so parity stays an observed pattern for specific
    # values (e.g. P(2,0)) rather than a grid-wide invariant.
    assert pmn(0, 1).degrees() == [-1]
    assert any(d % 2 != 0 for d in pmn(0, 1).degrees())
    assert all(d % 2 == 0 for d in pmn(2, 0).degrees())
