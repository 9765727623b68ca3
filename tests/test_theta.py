"""Closed theta-style sums and the classical identity checks."""

from dataclasses import replace
from inspect import signature

import pytest

from crankq import etaq, tasks
from crankq.errors import CrankqError
from crankq.etaq import (EtaQuotientSpec, ThetaKind, eta_series, named_series, rr_stretch,
                         theta_sum)
from crankq.series import Series
from crankq.tasks import IDENTITIES, run_task

from oracles import naive_mul


def test_triangular_sum_small():
    t = theta_sum(ThetaKind.TRIANGULAR, 11)
    assert [t.coeff(n) for n in range(11)] == [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1]


def test_squares_sum_small():
    s = theta_sum(ThetaKind.SQUARES, 10)
    assert [s.coeff(n) for n in range(10)] == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]


def test_pent_sum_small():
    s = theta_sum(ThetaKind.PENT_6K1, 8)
    assert [s.coeff(n) for n in range(8)] == [1, -5, 7, 0, 0, -11, 0, 13]


def test_cubic_sum_small():
    s = theta_sum(ThetaKind.CUBIC_3K1, 17)
    assert s.coeff(0) == 1 and s.coeff(1) == 2
    assert s.coeff(5) == -4 and s.coeff(8) == -5 and s.coeff(16) == 7


def test_triangular_coeffs_are_zero_or_one():
    t = theta_sum(ThetaKind.TRIANGULAR, 300)
    assert set(t.coeffs) <= {0, 1}


def test_squares_coeff_range():
    s = theta_sum(ThetaKind.SQUARES, 300)
    assert set(s.coeffs) <= {-2, 0, 1, 2}
    assert [n for n, c in s.terms() if c == 1] == [0]


@pytest.mark.parametrize("kind", list(ThetaKind))
def test_theta_identities_at_300(kind):
    assert run_task(f"theta-{kind.value}", order=300).passed


def test_theta_identity_minimal_window():
    assert run_task("theta-squares", order=1).passed


# ----------------------------------------------------------------------
# quintic dissections

def test_5dissections_pass():
    for which in ("31", "32"):
        for order in (150, 26):
            report = run_task(f"dis{which}", order=order)
            assert report.passed and report.task == f"dis{which}"
            assert (report.params, report.order) == ({"which": which}, order)


def test_5dissection_fault_injection():
    # replace the 5 q^4 bracket coefficient of the reciprocal dissection
    # by 4: the comparison must fail exactly at exponent 4
    order = 150
    lhs, rhs = tasks._dissection_sides("32", order)
    corrupted = rhs - eta_series({25: 5, 5: -6}, order).shift(4)
    assert lhs.first_diff(corrupted) == 4
    assert lhs.first_diff(rhs) is None


def test_5dissections_preconditions():
    with pytest.raises(ValueError):
        run_task("dis31", order=24)


# the right sides as the schoolbook route built them: quotient, then the
# (s, c, p) terms of the bracket sum of c * q^s * R(q^5)^p; the test
# multiplies the two with the naive oracle, which shares no product code
SCHOOLBOOK_SIDES = {
    "31": ({25: 1}, [(0, 1, -1), (1, -1, 0), (2, -1, 1)]),
    "32": ({25: 5, 5: -6}, [(0, 1, -4), (1, 1, -3), (2, 2, -2), (3, 3, -1), (4, 5, 0),
                            (5, -3, 1), (6, 2, 2), (7, -1, 3), (8, 1, 4)]),
}


@pytest.mark.parametrize("order", [25, 26, 150, 255, 256, 257, 511, 512, 513])
@pytest.mark.parametrize("which", SCHOOLBOOK_SIDES)
def test_dissection_right_side_matches_schoolbook_route(which, order):
    # the bracket multiplied in place by the quotient's planned passes
    # equals the dense quotient times the bracket, coefficient for
    # coefficient
    quotient, bracket = SCHOOLBOOK_SIDES[which]
    rr_bracket = next(etaq.power_sums([bracket], etaq.rr_factors(5), order))
    assert rr_bracket.valuation == 0 and rr_bracket.order == order
    want = Series(0, naive_mul(list(eta_series(quotient, order).coeffs),
                               list(rr_bracket.coeffs), order), order)
    got = tasks._dissection_sides(which, order)[1]
    assert got == want and want.order == order


def test_dissection_right_sides_multiply_to_one():
    order = 150
    f1_rhs = tasks._dissection_sides("31", order)[1]
    reciprocal_rhs = tasks._dissection_sides("32", order)[1]
    assert (f1_rhs * reciprocal_rhs).agree(Series.const(1, order))


# ----------------------------------------------------------------------
# K identities

def test_k_identities_pass():
    for which in ("33", "34"):
        for order in (150, 10):
            report = run_task(f"k{which}", order=order)
            assert report.passed and report.task == f"k{which}"
            assert (report.params, report.order) == ({"which": which}, order)


def test_k_identity_fault_injection():
    # corrupting the q^-1 coefficient of K must surface at exponent -1
    order = 150
    k = named_series("K", order)
    bad = k + Series.monomial(1, -1, order)
    rhs = eta_series({1: -2, 2: 4, 5: 2, 10: -4}, order, shift=-1)
    assert (bad + 1).first_diff(rhs) == -1


def test_k_identities_preconditions():
    with pytest.raises(ValueError):
        run_task("k33", order=9)


def test_rr_stretch_consistency():
    assert rr_stretch(5, 60).agree(rr_stretch(1, 12).stretch(5))


# ----------------------------------------------------------------------
# the identity table

def default_order(row):
    """The default order of the task that checks the row."""
    tid = "f52-corrected" if row.startswith("f52-") else row
    return signature(tasks._REGISTRY[tid][1]).parameters["order"].default


@pytest.mark.parametrize("row", sorted(IDENTITIES))
def test_identity_row_holds_at_its_task_default_order(row):
    # all but the quoted f52 reduction, the documented misprint
    expected = {"exponent": 11, "lhs": 20, "rhs": 5} if row == "f52" else None
    assert IDENTITIES[row].mismatch(default_order(row)) == expected


@pytest.mark.parametrize("row", sorted(IDENTITIES))
def test_identity_row_mutant_is_refuted(row):
    # one more of the first term must be refuted, so the generic check
    # compares what the row states
    identity = IDENTITIES[row]
    (c, spec), *rest = identity.terms
    mutant = replace(identity, terms=((c + 1, spec), *rest))
    order = default_order(row)
    witness = mutant.mismatch(order)
    assert witness is not None and witness["exponent"] < order
    assert witness["lhs"] != witness["rhs"]


def test_statements_are_rendered_from_their_rows():
    # byte for byte the text that the report and `crankq list` printed as
    # prose, and a changed row changes it
    assert run_task("thm12", order=20).params == {
        "identity": "C(5n+4) = 5*f1^2*f5*f10^2/f2^4"}
    assert tasks.describe("a51") == "a(5n+1) column is 3 f_1 f_2^2 mod 5"
    assert tasks.describe("a54") == ("A(5n+4) column is f_2^2 f_10^2 mod 5; "
                                     "A(10n+9) vanishes mod 5")
    mutant = replace(IDENTITIES["thm12"], terms=((3, EtaQuotientSpec.make({1: -1, 4: 2})),))
    assert mutant.statement() == "C(5n+4) = 3*f4^2/f1"
    assert (replace(IDENTITIES["a51"], modulus=7).reduction()
            == "a(5n+1) column is 3 f_1 f_2^2 mod 7")


def test_plain_rows_build_no_target_through_the_plan(monkeypatch):
    def planned(*args):
        raise AssertionError("target built through the plan")

    monkeypatch.setattr(tasks, "eta_quotient", planned)
    for row in ("k33", "k34"):
        assert IDENTITIES[row].plain and IDENTITIES[row].mismatch(150) is None


def test_identity_row_with_q2_term_refuses_low_orders():
    row = IDENTITIES["f52-exact"]
    assert max(spec.shift for _, spec in row.terms) == 2
    for order in (1, 2):
        with pytest.raises(CrankqError, match=f"^order must be >= 3, got {order}$"):
            row.mismatch(order)


@pytest.mark.parametrize("which", ["both", "identity", "vanishing"])
def test_f52_refuses_low_order_before_any_build(monkeypatch, which):
    def no_build(*args, **kwargs):
        raise AssertionError("a series was built")

    monkeypatch.setattr(etaq, "_CACHE", {})
    monkeypatch.setattr(etaq, "_Product", no_build)
    with pytest.raises(CrankqError, match="^order must be >= 3, got 2$"):
        run_task("f52", order=2, which=which)
