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

from .etaq import SeriesName, eta_series, named_series, rr_stretch
from .report import CheckReport, first_mismatch
from .series import Series

__all__ = [
    "ThetaKind",
    "theta_sum",
    "is_bilateral",
    "exponent",
    "weight",
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


def is_bilateral(kind: ThetaKind) -> bool:
    return _DEFS[kind][0]


def exponent(kind: ThetaKind, k: int) -> int:
    return _DEFS[kind][1](k)


def weight(kind: ThetaKind, k: int) -> int:
    return _DEFS[kind][2](k)


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


def _bracket(r5: Series, inv5: Series,
             terms: list[tuple[int, int, int]], order: int) -> Series:
    """Sum c * q^s * R5^p for (s, c, p) triples, with R5^0 = 1."""
    total = Series.zero(order)
    for s, c, p in terms:
        if p == 0:
            piece = Series.monomial(c, s, order)
        else:
            base = r5 if p > 0 else inv5
            piece = (base ** abs(p)).shift(s) * c
        total = total + piece
    return total


def five_dissection_sides(order: int) -> dict[str, tuple[Series, Series]]:
    """Left and right sides of the quintic dissections of f_1 and 1/f_1."""
    r5 = rr_stretch(5, order)
    inv5 = r5.invert()
    f25 = eta_series({25: 1}, order)
    lhs1 = eta_series({1: 1}, order)
    rhs1 = f25 * _bracket(r5, inv5, [(0, 1, -1), (1, -1, 0), (2, -1, 1)], order)
    lhs2 = named_series(SeriesName.P_PARTITION, order)
    nine = [(0, 1, -4), (1, 1, -3), (2, 2, -2), (3, 3, -1), (4, 5, 0),
            (5, -3, 1), (6, 2, 2), (7, -1, 3), (8, 1, 4)]
    rhs2 = eta_series({25: 5, 5: -6}, order) * _bracket(r5, inv5, nine, order)
    return {"31": (lhs1, rhs1), "32": (lhs2, rhs2)}


def _identity_failures(sides: dict[str, tuple[Series, Series]],
                       which: str) -> list[dict]:
    """Witnesses of the labelled identities ``which`` selects, in label order."""
    failures = []
    for label, (lhs, rhs) in sides.items():
        if which in ("both", label):
            diff = first_mismatch(lhs, rhs)
            if diff:
                failures.append({"identity": label, **diff})
    return failures


def verify_5dissections(order: int, which: str = "both") -> CheckReport:
    """Check the quintic dissection identities as exact series equalities.

    ``which`` selects "31" (the f_1 dissection), "32" (the 1/f_1
    dissection) or "both".
    """
    if order < 25:
        raise ValueError("order must be >= 25 so f_25 contributes")
    if which not in ("both", "31", "32"):
        raise ValueError(f"unknown dissection selector {which!r}")
    failures = _identity_failures(five_dissection_sides(order), which)
    task = "dis31" if which == "31" else "dis32" if which == "32" else "dissections"
    return CheckReport.from_failures(task, {"which": which}, order, failures)


def verify_K_identities(order: int, which: str = "both") -> CheckReport:
    """Check K + 1 and K - 4 against their eta quotients as Laurent series."""
    if order < 10:
        raise ValueError("order must be >= 10")
    if which not in ("both", "33", "34"):
        raise ValueError(f"unknown K-identity selector {which!r}")
    k_series = named_series(SeriesName.K_PARAM, order)
    targets = {
        "33": (k_series + 1, eta_series({1: -2, 2: 4, 5: 2, 10: -4}, order, shift=-1)),
        "34": (k_series - 4, eta_series({1: 3, 2: -1, 5: 1, 10: -3}, order, shift=-1)),
    }
    failures = _identity_failures(targets, which)
    task = "k33" if which == "33" else "k34" if which == "34" else "k-identities"
    return CheckReport.from_failures(task, {"which": which}, order, failures)
