"""Laurent-polynomial algebra in the parameter K and the P(m,n) system.

K is the Laurent q-series f_2 f_5^5 / (q f_1 f_10^5).  The quantities
P(m,n) combine reciprocal powers of the Rogers-Ramanujan products
R(q) and R(q^2); each one collapses to a Laurent polynomial in K, which
this module computes from the two-index recurrence

    P(m, n+1) = 4 K^-1 P(m, n) + P(m, n-1)
    P(m+2, n) = K P(m+1, n) + P(m, n)

run from the four seeds P(0,0) = 2, P(0,1) = 4 K^-1, P(1,0) = K and
P(1,-1) = 4 K^-1 - 2 + K.  The same quantities evaluated directly from
the R-series give an independent route, and the two are cross-checked
coefficient by coefficient.

Division by powers of K never happens: identities quoted with a K^j
denominator are multiplied through by the monomial K^-j, which is exact
in the Laurent ring.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, NamedTuple, Optional

from .etaq import (NAMED_SPECS, SeriesName, eta_factors, factor_product,
                   power_sum, rr_factors)
from .report import CheckReport, first_mismatch
from .series import Series

__all__ = [
    "KPolynomial",
    "K",
    "PmnIndex",
    "pmn",
    "pmn_series",
    "eval_at_K",
    "verify_recurrences",
    "verify_series_agreement",
    "verify_combo_identity",
]


class KPolynomial:
    """Laurent polynomial in K with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        kept: dict[int, int] = {}
        for d, c in items:
            if not isinstance(d, int) or not isinstance(c, int):
                raise TypeError("degrees and coefficients must be int")
            if c:
                kept[d] = kept.get(d, 0) + c
        self._terms = {d: c for d, c in kept.items() if c}

    @classmethod
    def zero(cls) -> "KPolynomial":
        return cls()

    @classmethod
    def const(cls, c: int) -> "KPolynomial":
        return cls({0: c})

    @classmethod
    def monomial(cls, c: int, degree: int) -> "KPolynomial":
        return cls({degree: c})

    def coeff(self, degree: int) -> int:
        return self._terms.get(degree, 0)

    def degrees(self) -> list[int]:
        return sorted(self._terms)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = KPolynomial.const(other)
        if not isinstance(other, KPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def _lift(self, other) -> Optional["KPolynomial"]:
        if isinstance(other, KPolynomial):
            return other
        if isinstance(other, int):
            return KPolynomial.const(other)
        return None

    def __add__(self, other) -> "KPolynomial":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for d, c in other._terms.items():
            out[d] = out.get(d, 0) + c
        return KPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "KPolynomial":
        return KPolynomial({d: -c for d, c in self._terms.items()})

    def __sub__(self, other) -> "KPolynomial":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "KPolynomial":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "KPolynomial":
        if isinstance(other, int):
            return KPolynomial({d: other * c for d, c in self._terms.items()})
        if not isinstance(other, KPolynomial):
            return NotImplemented
        out: dict[int, int] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                d = d1 + d2
                out[d] = out.get(d, 0) + c1 * c2
        return KPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "KPolynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative powers are defined")
        result = KPolynomial.const(1)
        for _ in range(k):
            result = result * self
        return result

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for d, c in sorted(self._terms.items(), reverse=True):
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                kpart = "K" if d == 1 else f"K^{d}"
                body = kpart if mag == 1 else f"{mag}*{kpart}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    __repr__ = __str__


K = KPolynomial({1: 1})
_K_SPEC = NAMED_SPECS[SeriesName.K_PARAM]
_FOUR_K_INV = KPolynomial({-1: 4})


class PmnIndex(NamedTuple):
    m: int
    n: int


_PMN_SEEDS: dict[tuple[int, int], KPolynomial] = {
    (0, 0): KPolynomial.const(2),
    (0, 1): _FOUR_K_INV,
    (1, 0): K,
    (1, -1): KPolynomial({-1: 4, 0: -2, 1: 1}),
}

_PMN_CACHE: dict[tuple[int, int], KPolynomial] = dict(_PMN_SEEDS)
_PMN_LOCK = threading.Lock()

# anchor window of known n per seed family
_FAMILY_ANCHORS = {0: (0, 1), 1: (-1, 0)}


def _pmn(m: int, n: int) -> KPolynomial:
    hit = _PMN_CACHE.get((m, n))
    if hit is not None:
        return hit
    if m >= 2:
        value = K * _pmn(m - 1, n) + _pmn(m - 2, n)
    else:
        lo, hi = _FAMILY_ANCHORS[m]
        if n > hi:
            value = _FOUR_K_INV * _pmn(m, n - 1) + _pmn(m, n - 2)
        else:
            assert n < lo
            value = _pmn(m, n + 2) - _FOUR_K_INV * _pmn(m, n + 1)
    _PMN_CACHE[(m, n)] = value
    return value


def pmn(m: int, n: int) -> KPolynomial:
    """P(m, n) as a Laurent polynomial in K.

    m is reduced through the two-step recurrence down to the seed
    families m = 0 and m = 1; within a family, n walks up or down from
    the anchored pair, using the exact rearrangement for the downward
    direction.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    with _PMN_LOCK:
        return _pmn(m, n)


def pmn_series(m: int, n: int, order: int) -> Series:
    """P(m, n) evaluated directly from the R-series.

    The two defining terms are t = q^m R1^(m+2n) R2^(2m-n) and its
    reciprocal, signed by (-1)^(m+n), with R1 = R(q), R2 = R(q^2); each
    is one list of factor passes.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if order <= m:
        raise ValueError(f"order must exceed m = {m} for the reciprocal term")
    factors = rr_factors(1, m + 2 * n) + rr_factors(2, 2 * m - n)
    t = factor_product(factors, order, m)
    inverse = factor_product([(p, r, -e) for p, r, e in factors], order, -m)
    return inverse + (t if (m + n) % 2 == 0 else -t)


def eval_at_K(p: KPolynomial, order: int) -> Series:
    """Substitute the Laurent q-series value of K into p.

    K^d is q^(-d) times the d-th power of K's eta factors, climbed one
    degree at a time by :func:`~crankq.etaq.power_sum`.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return power_sum([(_K_SPEC.shift * d, c, d) for d, c in p.items()],
                     eta_factors(_K_SPEC), order)


def verify_recurrences(m_max: int = 4, n_min: int = -3, n_max: int = 3,
                       which: str = "both") -> CheckReport:
    """Exact symbolic closure of the two P(m,n) recurrences on a grid."""
    if which not in ("both", "35", "36"):
        raise ValueError(f"unknown recurrence selector {which!r}")
    failures = []
    for m in range(m_max + 1):
        for n in range(n_min, n_max + 1):
            if which in ("both", "35"):
                lhs = pmn(m, n + 1)
                rhs = _FOUR_K_INV * pmn(m, n) + pmn(m, n - 1)
                if lhs != rhs:
                    failures.append({"recurrence": "n-step", "m": m, "n": n})
            if which in ("both", "36"):
                lhs = pmn(m + 2, n)
                rhs = K * pmn(m + 1, n) + pmn(m, n)
                if lhs != rhs:
                    failures.append({"recurrence": "m-step", "m": m, "n": n})
    task = "rec35" if which == "35" else "rec36" if which == "36" else "recurrences"
    params = {"m_max": m_max, "n_min": n_min, "n_max": n_max}
    return CheckReport.from_failures(task, params, 0, failures)


def verify_series_agreement(order: int = 100, m_max: int = 3,
                            n_min: int = -2, n_max: int = 2) -> CheckReport:
    """eval_at_K(pmn) against the direct R-series evaluation on a grid."""
    failures = []
    for m in range(m_max + 1):
        for n in range(n_min, n_max + 1):
            diff = first_mismatch(eval_at_K(pmn(m, n), order), pmn_series(m, n, order),
                                  keys=("symbolic", "direct"))
            if diff:
                failures.append({"m": m, "n": n, **diff})
    params = {"m_max": m_max, "n_min": n_min, "n_max": n_max}
    return CheckReport.from_failures("pmn-eval", params, order, failures)


def combo_sides() -> tuple[KPolynomial, KPolynomial]:
    """Both sides of the five-term P-combination identity, as Laurent polys.

    The right side carries a K^2 denominator in its quoted form; it is
    cleared here by the exact monomial K^-2.
    """
    lhs = (-pmn(3, -2) + 2 * pmn(3, -1) - 10 * pmn(2, -1)
           - 16 * pmn(1, -1) + 27 * pmn(1, 0) - 15)
    rhs = ((K - 4) ** 2 * (K + 1) * (K * K - 3 * K + 1)
           * KPolynomial.monomial(1, -2))
    return lhs, rhs


def verify_combo_identity(order: int = 100) -> CheckReport:
    """The P-combination identity, symbolically and as q-series.

    Also covers the two micro-identities used alongside it:
    1 + P(0,-1) = (K-4)/K and 1 - 2P(0,-1) - 2P(1,0) = 1 + 8K^-1 - 2K,
    both cleared of denominators before comparison.
    """
    failures = []
    lhs, rhs = combo_sides()
    if lhs != rhs:
        failures.append({"check": "symbolic", "lhs": str(lhs), "rhs": str(rhs)})
    diff = first_mismatch(eval_at_K(lhs, order), eval_at_K(rhs, order))
    if diff:
        failures.append({"check": "series", "exponent": diff["exponent"]})
    micro1_lhs = 1 + pmn(0, -1)
    micro1_rhs = (K - 4) * KPolynomial.monomial(1, -1)
    if micro1_lhs != micro1_rhs:
        failures.append({"check": "micro1", "lhs": str(micro1_lhs),
                         "rhs": str(micro1_rhs)})
    micro2_lhs = 1 - 2 * pmn(0, -1) - 2 * pmn(1, 0)
    micro2_rhs = KPolynomial({-1: 8, 0: 1, 1: -2})
    if micro2_lhs != micro2_rhs:
        failures.append({"check": "micro2", "lhs": str(micro2_lhs),
                         "rhs": str(micro2_rhs)})
    return CheckReport.from_failures("combo456", {}, order, failures)
