"""Closed theta-style sums and the classical identity checks."""

from dataclasses import replace
from inspect import signature

import pytest

from crankq import etaq, tasks, theta
from crankq.errors import CrankqError
from crankq.etaq import eta_series, named_series, rr_stretch
from crankq.series import Series
from crankq.theta import (IDENTITIES, ThetaKind, five_dissection_sides, theta_sum,
                          verify_5dissections, verify_K_identities,
                          verify_theta_identity)


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
    assert verify_theta_identity(kind, 300).passed


def test_theta_identity_minimal_window():
    assert verify_theta_identity(ThetaKind.SQUARES, 1).passed


# ----------------------------------------------------------------------
# quintic dissections

def test_5dissections_pass():
    for which in ("31", "32"):
        for order in (150, 26):
            report = verify_5dissections(order, which)
            assert report.passed and report.task == f"dis{which}"
            assert (report.params, report.order) == ({"which": which}, order)


def test_5dissection_fault_injection():
    # replace the 5 q^4 bracket coefficient of the reciprocal dissection
    # by 4: the comparison must fail exactly at exponent 4
    order = 150
    lhs, rhs = five_dissection_sides(order, "32")
    corrupted = rhs - eta_series({25: 5, 5: -6}, order).shift(4)
    assert lhs.first_diff(corrupted) == 4
    assert lhs.first_diff(rhs) is None


def test_5dissections_preconditions():
    with pytest.raises(ValueError):
        verify_5dissections(24, "31")
    with pytest.raises(ValueError):
        verify_5dissections(100, "33")


def test_dissection_right_sides_multiply_to_one():
    order = 150
    f1_rhs = five_dissection_sides(order, "31")[1]
    reciprocal_rhs = five_dissection_sides(order, "32")[1]
    assert (f1_rhs * reciprocal_rhs).agree(Series.const(1, order))


# ----------------------------------------------------------------------
# K identities

def test_k_identities_pass():
    for which in ("33", "34"):
        for order in (150, 10):
            report = verify_K_identities(order, which)
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
        verify_K_identities(9, "33")
    with pytest.raises(ValueError):
        verify_K_identities(100, "35")


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


def test_plain_rows_build_no_target_through_the_plan(monkeypatch):
    def planned(*args):
        raise AssertionError("target built through the plan")

    monkeypatch.setattr(theta, "eta_quotient", planned)
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
        tasks.run_task("f52", order=2, which=which)
