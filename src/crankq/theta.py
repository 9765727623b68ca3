"""Closed-form theta-style sums and the identities behind the checks.

Each :class:`ThetaKind` names a row of :data:`crankq.etaq.SUMS`: a term
generator for a sum of ``weight(k) * q^(exponent(k))`` and the exponents
(a, b) with which it equals f_1^a f_2^b.  The eta-quotient planner builds
products from the same rows, so :func:`verify_theta_identity` compares
each sum against the plain route (|e| passes of f_m per factor), never
against a plan that could use the identity being checked.  The module
also verifies the quintic dissections of the Euler product.
:data:`IDENTITIES` states each other eta-quotient identity a task checks
once, as an :class:`Identity` row; the Laurent identities for the
parameter K are ``plain`` rows, for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import CrankqError
from .etaq import (SUMS, EtaQuotientSpec, SeriesName, eta_factors, eta_quotient,
                   eta_series, factor_product, named_series, power_sum, rr_factors)
from .report import CheckReport, first_mismatch
from .series import Series

__all__ = [
    "ThetaKind",
    "Identity",
    "IDENTITIES",
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


def _plain(spec: EtaQuotientSpec, order: int) -> Series:
    """The eta quotient by the plain route, which uses no identity."""
    return factor_product(eta_factors(spec), order, spec.shift)


def verify_theta_identity(kind: ThetaKind, order: int) -> CheckReport:
    """Compare the closed-form sum against its eta quotient up to order."""
    a, b = SUMS[kind.value][0]
    quotient = _plain(EtaQuotientSpec.make({1: a, 2: b}), order)
    diff = first_mismatch(theta_sum(kind, order), quotient, keys=("sum", "quotient"))
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


@dataclass(frozen=True)
class Identity:
    """The (m, r) column of a named series, sum of c(m n + r) q^n, equals
    the sum of c * spec over ``terms`` (mod ``modulus``, if given).  Each
    spec carries its power of q; the empty spec is the constant 1.  A
    ``plain`` row builds its target by the plain route, not the planner."""

    series: SeriesName
    m: int
    r: int
    terms: tuple[tuple[int, EtaQuotientSpec], ...]
    modulus: Optional[int] = None
    plain: bool = False

    def mismatch(self, order: int) -> Optional[dict[str, int]]:
        """:func:`first_mismatch` of the two sides below ``order``, or None."""
        top = max(spec.shift for _, spec in self.terms)
        if order <= top:
            raise CrankqError(f"order must be >= {top + 1}, got {order}")
        column = named_series(self.series, self.m * order + self.r)
        build = _plain if self.plain else eta_quotient
        target = sum(build(spec, order) * c for c, spec in self.terms)
        return first_mismatch(column.extract(self.m, self.r), target, modulus=self.modulus)


_spec = EtaQuotientSpec.make
# shared by the quoted f(5n+2) reduction and its repaired forms
_F52_HEAD = (1, _spec({1: 3, 2: -2, 5: -1, 10: 2}))
_F52_TAIL = (5, _spec({1: 2, 5: -4, 10: 8}, 2))

# task id, or task id and form -> the identity the task checks
IDENTITIES: dict[str, Identity] = {
    "thm12": Identity(SeriesName.C_CRANK, 5, 4, ((5, _spec({1: 2, 2: -4, 5: 1, 10: 2})),)),
    "a51": Identity(SeriesName.A_RECIP, 5, 1, ((3, _spec({1: 1, 2: 2})),), modulus=5),
    "a54": Identity(SeriesName.A_CAP, 5, 4, ((1, _spec({2: 2, 10: 2})),), modulus=5),
    "f52": Identity(SeriesName.F_CONV, 5, 2, (
        _F52_HEAD, (-5, _spec({2: -1, 5: -2, 10: 2}, 1)), _F52_TAIL), modulus=25),
    "f52-exact": Identity(SeriesName.F_CONV, 5, 2, (
        _F52_HEAD, (-5, _spec({1: 5, 2: -6, 5: -3, 10: 6}, 1)),
        (5, _spec({1: 7, 2: -10, 5: -5, 10: 10}, 2)))),
    "f52-mod25": Identity(SeriesName.F_CONV, 5, 2, (
        _F52_HEAD, (-5, _spec({2: -1, 5: -2, 10: 5}, 1)), _F52_TAIL), modulus=25),
    "k33": Identity(SeriesName.K_PARAM, 1, 0, (
        (1, _spec({1: -2, 2: 4, 5: 2, 10: -4}, -1)), (-1, _spec({}))), plain=True),
    "k34": Identity(SeriesName.K_PARAM, 1, 0, (
        (1, _spec({1: 3, 2: -1, 5: 1, 10: -3}, -1)), (4, _spec({}))), plain=True),
}


def verify_K_identities(order: int, which: str) -> CheckReport:
    """Check K + 1 ("33") or K - 4 ("34") against its eta quotient."""
    if order < 10:
        raise ValueError("order must be >= 10")
    if f"k{which}" not in IDENTITIES:
        raise ValueError(f"unknown K-identity selector {which!r}")
    diff = IDENTITIES[f"k{which}"].mismatch(order)
    return CheckReport.from_failures(f"k{which}", {"which": which}, order,
                                     [diff and {"identity": which, **diff}])
