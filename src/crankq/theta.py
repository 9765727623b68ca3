"""Closed-form theta-style sums and the classical identities behind the checks.

Each :class:`ThetaKind` fixes an exponent function and an integer weight
over k; the sum of ``weight(k) * q^(exponent(k))`` equals a specific
eta quotient, and :func:`verify_theta_identity` confirms that equality
at any requested order.  The module also verifies the quintic
dissections of the Euler product and the two Laurent identities for the
parameter K = f_2 f_5^5 / (q f_1 f_10^5).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .etaq import SeriesName, eta_series, named_series, power_sum, rr_factors
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
    TRIANGULAR = "triangular"   # sum_{k>=0} q^(k(k+1)/2)           = f_2^2 / f_1
    SQUARES = "squares"         # sum_k (-1)^k q^(k^2)              = f_1^2 / f_2
    PENT_6K1 = "pent"           # sum_k (6k+1) q^(k(3k+1)/2)        = f_1^5 / f_2^2
    CUBIC_3K1 = "cubic"         # sum_k (-1)^k (3k+1) q^(k(3k+2))   = f_2^5 / f_1^2


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


_DEFS: dict[ThetaKind, tuple[bool, Callable[[int], int], Callable[[int], int],
                             dict[int, int]]] = {
    ThetaKind.TRIANGULAR: (False, lambda k: k * (k + 1) // 2, lambda k: 1,
                           {1: -1, 2: 2}),
    ThetaKind.SQUARES: (True, lambda k: k * k, _sign,
                        {1: 2, 2: -1}),
    ThetaKind.PENT_6K1: (True, lambda k: k * (3 * k + 1) // 2,
                         lambda k: 6 * k + 1, {1: 5, 2: -2}),
    ThetaKind.CUBIC_3K1: (True, lambda k: k * (3 * k + 2),
                          lambda k: _sign(k) * (3 * k + 1), {1: -2, 2: 5}),
}


def theta_sum(kind: ThetaKind, order: int) -> Series:
    """Sum weight(k) q^exponent(k) over every k whose exponent is below order.

    k walks outward from 0, so no bound on k has to be estimated; the walk
    stops as soon as both directions have left the window.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    bilateral, expfn, wfn, _ = _DEFS[kind]
    terms: dict[int, int] = {}
    j = 0
    while True:
        hit = False
        for k in ((j, -j) if bilateral and j else (j,)):
            e = expfn(k)
            if 0 <= e < order:
                hit = True
                terms[e] = terms.get(e, 0) + wfn(k)
        if j and not hit:
            break
        j += 1
    return Series.from_terms(terms, order)


def verify_theta_identity(kind: ThetaKind, order: int) -> CheckReport:
    """Compare the closed-form sum against its eta quotient up to order."""
    diff = first_mismatch(theta_sum(kind, order), eta_series(_DEFS[kind][3], order),
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
                          eta_series(quotient, order, shift=-1))
    return CheckReport.from_failures(f"k{which}", {"which": which}, order,
                                     [diff and {"identity": which, **diff}])
