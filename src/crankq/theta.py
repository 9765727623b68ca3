"""Closed-form theta-style sums and the classical identities behind the checks.

Each :class:`ThetaKind` names a row of :data:`crankq.etaq.SUMS`: a term
generator for a sum of ``weight(k) * q^(exponent(k))`` and the exponents
(a, b) with which it equals f_1^a f_2^b.  The eta-quotient planner builds
products from the same rows, so :func:`verify_theta_identity` compares
each sum against the plain route (|e| passes of f_m per factor), never
against a plan that could use the identity being checked.  The module
also verifies the quintic dissections of the Euler product and the two
Laurent identities for the parameter K = f_2 f_5^5 / (q f_1 f_10^5),
again against the plain route.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

from .etaq import (SUMS, EtaQuotientSpec, SeriesName, eta_factors, eta_series,
                   factor_product, named_series, power_sum, rr_factors)
from .report import CheckReport, first_mismatch
from .series import Series

__all__ = [
    "ThetaKind",
    "theta_sum",
    "verify_theta_identity",
    "verify_5dissections",
    "verify_K_identities",
]


class ThetaKind(Enum):
    """The weighted sums with a registry task; each value names the row of
    :data:`crankq.etaq.SUMS` that states its identity."""

    TRIANGULAR = "triangular"   # psi(q) = f_2^2 / f_1
    SQUARES = "squares"         # phi(-q) = f_1^2 / f_2
    PENT_6K1 = "pent"           # f_1^5 / f_2^2
    CUBIC_3K1 = "cubic"         # f_2^5 / f_1^2


def theta_sum(kind: ThetaKind, order: int) -> Series:
    """Sum weight(k) q^exponent(k) over every k whose exponent is below order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return Series.from_terms([(0, 1), *SUMS[kind.value][1](order)], order)


def _plain(factors: Mapping[int, int], order: int, shift: int = 0) -> Series:
    """q^shift prod f_m^e by the plain route, which uses no identity."""
    spec = EtaQuotientSpec.make(factors, shift)
    return factor_product(eta_factors(spec), order, shift)


def verify_theta_identity(kind: ThetaKind, order: int) -> CheckReport:
    """Compare the closed-form sum against its eta quotient up to order."""
    a, b = SUMS[kind.value][0]
    diff = first_mismatch(theta_sum(kind, order), _plain({1: a, 2: b}, order),
                          keys=("sum", "quotient"))
    return CheckReport.from_failures(f"theta-{kind.value}", {"kind": kind.value},
                                     order, [diff])


def five_dissection_sides(order: int, which: str) -> tuple[Series, Series]:
    """Left and right side of the quintic dissection of f_1 ("31") or of
    1/f_1 ("32").

    Each bracket is a sum of c * q^s * R(q^5)^p over (s, c, p) triples.
    """
    r5 = rr_factors(5)
    if which == "31":
        three = [(0, 1, -1), (1, -1, 0), (2, -1, 1)]
        return (eta_series({1: 1}, order),
                eta_series({25: 1}, order) * power_sum(three, r5, order))
    if which == "32":
        nine = [(0, 1, -4), (1, 1, -3), (2, 2, -2), (3, 3, -1), (4, 5, 0),
                (5, -3, 1), (6, 2, 2), (7, -1, 3), (8, 1, 4)]
        return (named_series(SeriesName.P_PARTITION, order),
                eta_series({25: 5, 5: -6}, order) * power_sum(nine, r5, order))
    raise ValueError(f"unknown dissection selector {which!r}")


def verify_5dissections(order: int, which: str) -> CheckReport:
    """Check the quintic dissection identity "31" (of f_1) or "32" (of
    1/f_1) as an exact series equality."""
    if order < 25:
        raise ValueError("order must be >= 25 so f_25 contributes")
    diff = first_mismatch(*five_dissection_sides(order, which))
    return CheckReport.from_failures(f"dis{which}", {"which": which}, order,
                                     [diff and {"identity": which, **diff}])


# selector -> (c, exponents of the eta quotient equal to q (K + c))
_K_IDENTITIES = {"33": (1, {1: -2, 2: 4, 5: 2, 10: -4}),
                 "34": (-4, {1: 3, 2: -1, 5: 1, 10: -3})}


def verify_K_identities(order: int, which: str) -> CheckReport:
    """Check K + 1 ("33") or K - 4 ("34") against its eta quotient as a
    Laurent series."""
    if order < 10:
        raise ValueError("order must be >= 10")
    if which not in _K_IDENTITIES:
        raise ValueError(f"unknown K-identity selector {which!r}")
    c, quotient = _K_IDENTITIES[which]
    diff = first_mismatch(named_series(SeriesName.K_PARAM, order) + c,
                          _plain(quotient, order, shift=-1))
    return CheckReport.from_failures(f"k{which}", {"which": which}, order,
                                     [diff and {"identity": which, **diff}])
