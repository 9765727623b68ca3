"""Laurent-polynomial algebra in the parameter K and the P(m,n) system.

K is the Laurent q-series f_2 f_5^5 / (q f_1 f_10^5).  The quantities
P(m,n) combine reciprocal powers of the Rogers-Ramanujan products
R(q) and R(q^2); each one collapses to a Laurent polynomial in K, which
this module computes from the two-index recurrence

    P(m, n+1) = 4 K^-1 P(m, n) + P(m, n-1)
    P(m+2, n) = K P(m+1, n) + P(m, n)

run from the four seeds P(0,0) = 2, P(0,1) = 4 K^-1, P(1,0) = K and
P(1,-1) = 4 K^-1 - 2 + K.  The same quantities evaluated directly from
the R-series give an independent route.  This module holds only the
algebra; the checks that cross the two routes coefficient by coefficient,
close the recurrences on a grid and compare the five-term combination
are registry tasks in :mod:`~crankq.tasks`.

Division by powers of K never happens: identities quoted with a K^j
denominator are multiplied through by the monomial K^-j, which is exact
in the Laurent ring.
"""

from __future__ import annotations

import threading
from functools import cache
from itertools import pairwise
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import CrankqError
from .etaq import (NAMED_SPECS, Factor, SeriesName, factor_cost, plan_quotient,
                   power_sums, rr_factors, step)
from .series import Series, signed_terms

__all__ = [
    "KPolynomial",
    "K",
    "PmnIndex",
    "pmn",
    "pmn_series_grid",
    "pmn_series",
    "eval_at_K_many",
    "eval_at_K",
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
        return signed_terms(sorted(self._terms.items(), reverse=True), "K") or "0"

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
    # Iterative, so that the depth of the walk is not bounded by the
    # interpreter's recursion limit: walk the seed families that P(m, n)
    # needs from their anchors out to n, then climb the m-chain at n.
    cache = _PMN_CACHE
    if (m, n) in cache:
        return cache[(m, n)]
    for f in ((m,) if m < 2 else (0, 1)):
        lo, hi = _FAMILY_ANCHORS[f]
        for k in range(hi + 1, n + 1):
            if (f, k) not in cache:
                cache[(f, k)] = _FOUR_K_INV * cache[(f, k - 1)] + cache[(f, k - 2)]
        for k in range(lo - 1, n - 1, -1):
            if (f, k) not in cache:
                cache[(f, k)] = cache[(f, k + 2)] - _FOUR_K_INV * cache[(f, k + 1)]
    for j in range(2, m + 1):
        if (j, n) not in cache:
            cache[(j, n)] = K * cache[(j - 1, n)] + cache[(j - 2, n)]
    return cache[(m, n)]


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


def _check_grid(m_min: int, m_max: int, n_min: int, n_max: int) -> dict[str, int]:
    """The grid's bounds as report params; an empty grid is refused."""
    if m_max < m_min or n_max < n_min:
        raise CrankqError(f"the grid m in [{m_min}, {m_max}], n in "
                          f"[{n_min}, {n_max}] is empty")
    return {"m_max": m_max, "n_min": n_min, "n_max": n_max}


_Point = tuple[int, int]    # (a, b): the lattice point R1^a R2^b


def _point(m: int, n: int) -> _Point:
    """t(m, n) = u^m v^n without its q^m: R1^(m+2n) R2^(2m-n)."""
    return (m + 2 * n, 2 * m - n)


def _move(src: _Point, dst: _Point) -> list[Factor]:
    """The factors that take the point src to dst, none at exponent 0."""
    return [f for m, e in ((1, dst[0] - src[0]), (2, dst[1] - src[1])) if e
            for f in rr_factors(m, e)]


@cache
def _walk_plan(m_min: int, m_max: int, n_min: int,
               n_max: int) -> tuple[tuple[_Point, _Point, bool, bool], ...]:
    """The moves (src, dst, take, keep) of :func:`pmn_series_grid`, in order:
    take src when no later move reads it, keep dst when one does.  Each
    chain (r, g, span, beside, mirror) climbs row r over span, hanging the
    columns ``beside[r +- 1]``; g is the lowest row it serves."""
    cols = range(n_min, n_max + 1)
    chains = [(0, 0, range(min(n_min, -n_max), max(n_max, -n_min) + 1),
               {1: cols, -1: range(-n_max, -n_min + 1)} if m_max else {}, False)
              ] if m_min == 0 else []
    for g in range(2 if m_min == 0 else m_min, m_max + 1, 3):
        rows = range(g, min(g + 2, m_max) + 1)
        chains.append((rows[len(rows) == 3], g, cols, dict.fromkeys(rows, cols), True))
    moves: list[tuple[_Point, _Point]] = []

    def add(src, dst):      # and its mirror, on a mirrored chain
        moves.extend([(src, dst), ((-src[0], -src[1]), (-dst[0], -dst[1]))][:1 + mirror])

    def hang(src, row, c):  # a point beside the chain, unless made already
        if c in beside.get(row, ()) and _point(row, c) not in stops:
            add(src, _point(row, c))

    for r, g, span, beside, mirror in chains:
        if not moves:       # from 1 through the cheapest point of row g (1 itself
            # when g = 0, by a move of no factors that marks 1 as made)
            s = min(span, key=lambda c: factor_cost(_move((0, 0), _point(g, c))))
            stops = [(0, 0)] + [_point(row, s) for row in range(g, r + 1)]
        else:               # by u-steps from the row below g
            s, stops = n_min, [_point(row, n_min) for row in range(g - 1, r + 1)]
        for src, dst in pairwise(stops):
            add(src, dst)
        for d, end in ((-1, span[0]), (1, span[-1])):
            x = _point(r, s)
            for c in range(s, end, d):      # v^d as R1^d, R2^-d, R1^d
                h1, h2 = (x[0] + d, x[1]), (x[0] + d, x[1] - d)
                add(x, h1)
                hang(h1, r + d, c)
                add(h1, h2)
                hang(h2, r - d, c + d)
                add(h2, x := _point(r, c + d))
            hang(x, r + d, end)             # no hub there: u^d from the chain
    plan, later = [], set()
    for src, dst in reversed(moves):
        plan.append((src, dst, src not in later, dst in later))
        later.add(src)
    return tuple(reversed(plan))


def pmn_series_grid(m_min: int, m_max: int, n_min: int, n_max: int,
                    order: int) -> Iterator[tuple[PmnIndex, Series]]:
    """P(m, n) evaluated directly from the R-series on a grid, m-major.

    The two defining terms are t = q^m R1^(m+2n) R2^(2m-n) and its
    reciprocal, signed by (-1)^(m+n), with R1 = R(q), R2 = R(q^2).  As
    t = u^m v^n and 1/t = u^-m v^-n, the grid needs the lattice points
    +-(m, n).  Every third row is a chain, climbed by v = R1^2/R2 as R1,
    R2^-1, R1 through the hubs T R1 and T' R1^-1, and the rows beside it
    hang from those hubs, one R2^+-2 move of four passes each in place of
    a v-step of six.  Row 0 is climbed once and serves rows 1 and -1; the
    rows above it (from m_min when m_min > 0) go in groups of three, each
    served by its middle row (a shorter last group by its lowest), climbed
    in step with its mirror.  A point streams out as soon as both of its
    halves are built (:func:`_walk_plan`); a move is one :func:`~crankq.etaq.step`.
    """
    if m_min < 0:
        raise ValueError("m must be >= 0")
    _check_grid(m_min, m_max, n_min, n_max)
    if order <= m_max:
        raise ValueError(f"order must exceed m = {m_max} for the reciprocal term")
    width = order + m_max           # 1/t(m, n) starts at q^-m
    lists: dict[_Point, list[int]] = {}
    halves: dict[tuple[int, int, int], list[int]] = {}
    ready: dict[tuple[int, int], Series] = {}
    grid = ((m, n) for m in range(m_min, m_max + 1) for n in range(n_min, n_max + 1))
    want = next(grid)
    for src, dst, take, keep in _walk_plan(m_min, m_max, n_min, n_max):
        x = None if src == (0, 0) else lists.pop(src) if take else lists[src][:]
        x = step(x, _move(src, dst), width)
        if keep:
            lists[dst] = x
        for side in (1, -1):        # dst as t(m, n), then as 1/t(m, n)
            a, b = side * dst[0], side * dst[1]
            m, n = (a + 2 * b) // 5, (2 * a - b) // 5
            if (a + 2 * b) % 5 == 0 and m_min <= m <= m_max and n_min <= n <= n_max:
                halves[m, n, side] = x[:order - side * m]
                if (m, n, -side) in halves:
                    sign = 1 if (m + n) % 2 == 0 else -1
                    ready[m, n] = (Series(-m, halves.pop((m, n, -1)), order)
                                   + Series(m, halves.pop((m, n, 1)), order) * sign)
        while want in ready:
            yield PmnIndex(*want), ready.pop(want)
            want = next(grid, None)


def pmn_series(m: int, n: int, order: int) -> Series:
    """P(m, n) evaluated directly from the R-series: the one-point grid."""
    return next(pmn_series_grid(m, m, n, n, order))[1]


def eval_at_K_many(polys: Iterable[KPolynomial], order: int) -> Iterator[Series]:
    """Substitute the Laurent q-series value of K into each polynomial.

    K^d is q^(-d) times the d-th power of K's planned factors; the powers
    that any of the polynomials needs are climbed once and shared
    (:func:`~crankq.etaq.power_sums`).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return power_sums([[(_K_SPEC.shift * d, c, d) for d, c in p.items()] for p in polys],
                      plan_quotient(_K_SPEC), order)


def eval_at_K(p: KPolynomial, order: int) -> Series:
    """Substitute the Laurent q-series value of K into p: one polynomial."""
    return next(eval_at_K_many([p], order))


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
