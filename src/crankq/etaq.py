"""Generating functions built as products of sparse theta factors.

The building blocks are the functions ``f_m = prod_{n>=1} (1 - q^{m n})``.
An :class:`EtaQuotientSpec` names a formal product
``q^shift * prod f_m^{e_m}``.  Every named series and the
Rogers-Ramanujan product R(q) (without its classical fractional power
of q) are products of factors (name, m, e): the sparse sum
``SUMS[name]`` at q -> q^m, to the power e.  A factor is |e|
:func:`~crankq.series.sparse_pass` passes over a dense coefficient list,
and a negative power divides.

Six of the sums are eta quotients on a level pair, f_m^a f_2m^b: f_m
itself, Jacobi's cube f_m^3, psi, phi(-q) and the two weighted sums of
:class:`~crankq.theta.ThetaKind`.  :func:`plan_quotient` rewrites each
eta quotient into the cheapest product of them: each pass priced by its
terms and its kernel path (unit or weighted row, multiply or divide),
and the two dearest multiplies free, since they come first and
:class:`_Product` lays them out with no pass.  :func:`eta_quotient`
builds that product.
:func:`eta_factors` is the plain route, |e_m| passes of f_m, kept as the
reference side of the identity checks.

:func:`named_series` exposes the closed registry of sequences the
verification tasks talk about: the partition numbers, the crank parity
sequence C(n), its reciprocal a(n), and the auxiliary products used by
the congruence proofs.  It and :func:`rr_series` share one cache.  Each
entry keeps its Series and the pass lists that a higher order reads, so
a request above the cached order resumes every pass where it stopped
and computes only the new coefficients: an ascending run of requests
costs about one build at its top order.  Every product, cached or not,
lays out the unit list times its first two multiplies sparse by sparse,
with no pass and nothing kept.  f is the exactly divided
C(5j+4) column, read from C's entry, times psi(q).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from itertools import combinations_with_replacement
from math import sqrt
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .report import CheckReport, first_mismatch
from .series import Series, sparse_pass

__all__ = [
    "EtaQuotientSpec",
    "SeriesName",
    "eta_quotient",
    "eta_series",
    "SUMS",
    "theta_terms",
    "eta_factors",
    "rr_factors",
    "apply_factors",
    "factor_product",
    "factor_cost",
    "plan_quotient",
    "step",
    "power_sums",
    "rr_series",
    "rr_stretch",
    "named_series",
    "binomial_congruence_check",
    "parse_quotient",
]


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Formal product q^shift * prod f_m^{e_m}."""

    shift: int = 0
    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        seen = set()
        for m, e in self.factors:
            if m < 1:
                raise ValueError(f"factor index {m} must be positive")
            if e == 0:
                raise ValueError(f"factor f_{m} has zero exponent")
            if m in seen:
                raise ValueError(f"duplicate factor f_{m}")
            seen.add(m)

    @classmethod
    def make(cls, factors: Mapping[int, int] | Iterable[tuple[int, int]],
             shift: int = 0) -> "EtaQuotientSpec":
        items = factors.items() if isinstance(factors, Mapping) else factors
        merged: dict[int, int] = {}
        for m, e in items:
            merged[m] = merged.get(m, 0) + e
        kept = tuple(sorted((m, e) for m, e in merged.items() if e))
        return cls(shift=shift, factors=kept)

    def __str__(self) -> str:
        bits = [f"q^{self.shift}"] if self.shift else []
        bits += [f"f{m}" + (f"^{e}" if e != 1 else "") for m, e in self.factors]
        return " * ".join(bits) if bits else "1"


class SeriesName(Enum):
    """Closed registry of named sequences; values double as CLI aliases."""

    P_PARTITION = "p"   # partition numbers, 1 / f_1
    C_CRANK = "C"       # crank parity sequence, f_1^3 / f_2^2
    A_RECIP = "a"       # reciprocal of C, f_2^2 / f_1^3
    D_CH = "d"          # f_1^4 f_2^2
    H_CH = "h"          # f_1^3 f_2
    K_PARAM = "K"       # f_2 f_5^5 / (q f_1 f_10^5), valuation -1
    A_CAP = "A"         # f_1^2 f_5^6 / f_2^4
    F_CONV = "f"        # triangular-sum convolution of C(5j+4)/5


def resolve_name(name: Union[SeriesName, str]) -> SeriesName:
    if isinstance(name, SeriesName):
        return name
    try:
        return SeriesName(name)
    except ValueError:
        pass
    try:
        return SeriesName[name]
    except KeyError:
        raise ValueError(f"unknown series name {name!r}") from None


NAMED_SPECS: dict[SeriesName, EtaQuotientSpec] = {
    SeriesName.P_PARTITION: EtaQuotientSpec.make({1: -1}),
    SeriesName.C_CRANK: EtaQuotientSpec.make({1: 3, 2: -2}),
    SeriesName.A_RECIP: EtaQuotientSpec.make({1: -3, 2: 2}),
    SeriesName.D_CH: EtaQuotientSpec.make({1: 4, 2: 2}),
    SeriesName.H_CH: EtaQuotientSpec.make({1: 3, 2: 1}),
    SeriesName.K_PARAM: EtaQuotientSpec.make({1: -1, 2: 1, 5: 5, 10: -5}, shift=-1),
    SeriesName.A_CAP: EtaQuotientSpec.make({1: 2, 2: -4, 5: 6}),
}

# A factor (name, m, e) is the sparse sum SUMS[name] at q -> q^m, to the
# power e.  Each sum is a unit series 1 + sum c q^k given by its term
# generator: terms(order) lists the (k, c), k >= 1 ascending, below order.
Factor = tuple[str, int, int]


def _walk(exponent: Callable[[int], int], weight: Callable[[int], int],
          bilateral: bool, order: int) -> list[tuple[int, int]]:
    """The k != 0 terms (exponent(k), weight(k)) of a sum over k >= 0 (over
    all k if bilateral) below ``order``, ascending.  k walks outward from 0
    in each direction until the exponent leaves the window."""
    terms = []
    for step in ((1, -1) if bilateral else (1,)):
        k = step
        while (e := exponent(k)) < order:
            terms.append((e, weight(k)))
            k += step
    return sorted(terms)


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def theta_terms(p: int, r: int, order: int) -> list[tuple[int, int]]:
    """The k != 0 terms (exponent, sign) of sum_k (-1)^k q^(k(pk - r)/2) below
    ``order``, ascending: k = j comes before k = -j, which comes before k = j + 1."""
    if not 0 < r < p or (p - r) % 2:
        raise ValueError(f"theta factor ({p}, {r}) needs 0 < r < p and p = r mod 2")
    return _walk(lambda k: k * (p * k - r) // 2, _sign, True, order)


# name -> (exponents, terms).  With exponents (a, b) the sum at q -> q^m is
# f_m^a f_2m^b: these rows are the planner's table, and theta.theta_sum
# and the congruence scans read the same generators.  The two halves of
# R(q) = T(5, 3) / T(5, 1) (Jacobi triple product) have no such form.
SUMS: dict[str, tuple[Optional[tuple[int, int]], Callable[[int], list[tuple[int, int]]]]] = {
    # Euler: sum_k (-1)^k q^(k(3k-1)/2) = f_1
    "eta": ((1, 0), partial(theta_terms, 3, 1)),
    # Jacobi: sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2) = f_1^3
    "jacobi": ((3, 0), partial(_walk, lambda k: k * (k + 1) // 2,
                               lambda k: _sign(k) * (2 * k + 1), False)),
    # psi(q) = sum_{k>=0} q^(k(k+1)/2) = f_2^2 / f_1
    "triangular": ((-1, 2), partial(_walk, lambda k: k * (k + 1) // 2,
                                    lambda k: 1, False)),
    # phi(-q) = sum_k (-1)^k q^(k^2) = f_1^2 / f_2
    "squares": ((2, -1), partial(_walk, lambda k: k * k,
                                 lambda k: 2 * _sign(k), False)),
    # sum_k (6k+1) q^(k(3k+1)/2) = f_1^5 / f_2^2
    "pent": ((5, -2), partial(_walk, lambda k: k * (3 * k + 1) // 2,
                              lambda k: 6 * k + 1, True)),
    # sum_k (-1)^k (3k+1) q^(k(3k+2)) = f_2^5 / f_1^2
    "cubic": ((-2, 5), partial(_walk, lambda k: k * (3 * k + 2),
                               lambda k: _sign(k) * (3 * k + 1), True)),
    "rr-num": (None, partial(theta_terms, 5, 3)),   # f(-q, -q^4)
    "rr-den": (None, partial(theta_terms, 5, 1)),   # f(-q^2, -q^3)
}


def eta_factors(spec: EtaQuotientSpec) -> list[Factor]:
    """The plain route: |e_m| passes of f_m per factor, no identity used.

    It is the reference side of the identity checks the planner relies on
    (``theta-*``, ``k33``, ``k34``); builds go through :func:`plan_quotient`.
    """
    return [("eta", m, e) for m, e in spec.factors]


def rr_factors(m: int, e: int = 1) -> list[Factor]:
    """The factors of R(q^m)^e."""
    return [("rr-num", m, e), ("rr-den", m, -e)]


# ----------------------------------------------------------------------
# the planner: each eta quotient from the cheapest set of sparse sums

# Term counts are taken below this order.  Every count grows as
# sqrt(N / m), so the ranking of plans is the same at every order N.
_COST_ORDER = 1 << 12
# ns per term-step of one pass at N = 4000, by kernel path (the README's
# pass table): weighted row (some term not +-1) -> (multiply, divide).
_PRICES = {False: (36, 42), True: (61, 71)}
# A sum at q -> q^2m has 1/sqrt(2) of the terms it has at q -> q^m.
_STEP_UP = 1 / sqrt(2)
# Pair rows (those touching f_2m) used per level, counting passes.  Three
# or four change no plan of a named series.
_PAIR_PASSES = 2
_PAIR_ROWS = [name for name, (exps, _) in SUMS.items() if exps and exps[1]]

# (price, total): the price of a plan's passes less its two dearest
# multiplies, which _Product lays out with no pass, then the price of all
# of them.  So ties go to the plan that is cheaper when every pass runs,
# as in a climb.
_Key = tuple[float, float]


@cache
def _term_count(name: str) -> int:
    return len(SUMS[name][1](_COST_ORDER))


def factor_cost(factors: Iterable[Factor]) -> float:
    """Term-steps per coefficient of a list of factors, in units of
    sqrt(N / 2^12) at order N: sum of |e| * (terms of the sum at q -> q^m)."""
    return sum(abs(e) * _term_count(name) / sqrt(m) for name, m, e in factors)


@cache
def _prices(name: str) -> tuple[int, ...]:
    """(multiply, divide): the price of one pass of a sum at q -> q^1, its
    terms below 2^12 times the price of a term-step on its kernel path."""
    terms = SUMS[name][1](_COST_ORDER)
    weighted = any(abs(c) != 1 for _, c in terms)
    return tuple(len(terms) * price for price in _PRICES[weighted])


def _price(name: str, e: int) -> int:
    return _prices(name)[e < 0]


@cache
def _pair_moves() -> dict[int, list[tuple[int, dict[str, int], int, int, int]]]:
    """a -> [(b, exps, price, d1, d2)]: each product of at most
    ``_PAIR_PASSES`` pair-row passes at one level, none undoing another,
    that equals f_m^a f_2m^b; d1 >= d2 are the prices of its two dearest
    multiply passes (0 for none)."""
    signed = [(name, sign) for name in _PAIR_ROWS for sign in (1, -1)]
    moves: dict[int, list] = {}
    for passes in range(_PAIR_PASSES + 1):
        for picks in combinations_with_replacement(signed, passes):
            exps: dict[str, int] = {}
            for name, sign in picks:
                exps[name] = exps.get(name, 0) + sign
            if len(picks) != sum(map(abs, exps.values())):
                continue
            a = sum(e * SUMS[name][0][0] for name, e in exps.items())
            b = sum(e * SUMS[name][0][1] for name, e in exps.items())
            muls = sorted((_price(name, 1) for name, sign in picks if sign > 0), reverse=True)
            moves.setdefault(a, []).append(
                (b, exps, sum(_price(name, sign) for name, sign in picks), *(muls + [0, 0])[:2]))
    return moves


@cache
def _make_up(n: int) -> list[tuple[int, int, int, int, int]]:
    """[(t, s, price, u1, u2)]: Jacobi's cube and f at one level, f_m^n as
    jacobi^t f_m^s with n = 3t + s; u1 >= u2 are the prices of their two
    dearest multiply passes.  The cube costs less per power of f_m than f
    does on every kernel path, so t is n // 3, or one more when 3 does not
    divide n."""
    step = SUMS["jacobi"][0][0]
    cube = (_price("jacobi", 1), _price("jacobi", -1))
    eta = (_price("eta", 1), _price("eta", -1))
    q, s = divmod(n, step)
    options = []
    for t, s in ((q, s), (q + 1, s - step)) if s else ((q, 0),):
        muls = sorted((cube[0] * (t > 0), cube[0] * (t > 1), eta[0] * (s > 0), eta[0] * (s > 1)))
        options.append((t, s, abs(t) * cube[t < 0] + abs(s) * eta[s < 0], muls[3], muls[2]))
    return options


@cache
def _covers(r: int) -> list[list[tuple[float, int, list]]]:
    """The cheapest passes at one level that give f_m^r, priced at m = 1.

    For each b they leave on f_2m, a row of (price, total, level) with 0,
    1 and 2 of their dearest multiply passes free: the pair rows, then
    :func:`_make_up` for the rest.  A level is (pair exps, t, s).  Listed
    for each number of free passes f as (price of the row at f, b, row),
    cheapest first.
    """
    rows: dict[int, list] = {}
    for a, moves in _pair_moves().items():
        for t, s, made, u1, u2 in _make_up(r - a):
            for b, pair, price, d1, d2 in moves:
                total = price + made
                # the price of the dearest multiply, and of the two dearest,
                # of the pair rows and the make-up together
                if d1 >= u1:
                    one, two = d1, d1 + (d2 if d2 > u1 else u1)
                else:
                    one, two = u1, u1 + (d1 if d1 > u2 else u2)
                row = rows.get(b)
                if row is None:     # the first candidate fills the row
                    level = (pair, t, s)
                    rows[b] = [(total, total, level), (total - one, total, level),
                               (total - two, total, level)]
                    continue
                # unrolled over 0, 1 and 2 free passes: this is most of the
                # planner's time
                if total < row[0][0]:
                    row[0] = (total, total, (pair, t, s))
                if total - one < row[1][0] or total - one == row[1][0] and total < row[1][1]:
                    row[1] = (total - one, total, (pair, t, s))
                if total - two < row[2][0] or total - two == row[2][0] and total < row[2][1]:
                    row[2] = (total - two, total, (pair, t, s))
    return [sorted((row[f][0], b, row) for b, row in rows.items()) for f in range(3)]


@cache
def _chain(r: int, tail: tuple[int, ...], free: int) -> tuple[_Key, tuple]:
    """The cheapest levels for the chain f_1^r f_2^tail[0] f_4^tail[1] ...,
    with ``free`` multiply passes free, priced at m = 1: (key, one level
    per chain level).

    Each level passes its f_2m exponent b to the next, and the last one
    passes nothing.  A level's prices are divided by sqrt(2) per step up
    the chain.
    """
    found = None
    for price, b, row in _covers(r)[free]:
        if b and not tail:
            continue
        if found is not None and price > found[0][0]:
            break               # the rest of the chain costs >= 0
        for k in range(free + 1):
            if k and row[k][0] == row[k - 1][0]:
                break           # no multiply left to free here
            price, total, level = row[k]
            (rest_price, rest_total), rest = (
                _chain(tail[0] - b, tail[1:], free - k) if tail else ((0.0, 0.0), ()))
            key = (price + rest_price * _STEP_UP, total + rest_total * _STEP_UP)
            if found is None or key < found[0]:
                found = (key, (level,) + rest)
    return found


@cache
def plan_quotient(spec: EtaQuotientSpec) -> tuple[Factor, ...]:
    """The cheapest factors for an eta quotient, without its shift, in the
    order :class:`_Product` runs them.

    A plan costs the passes it runs: each pass's terms at q^m times the
    price of a term-step on its kernel path (``_PRICES``), less its two
    dearest multiply passes.  Those lead the plan, so that
    :class:`_Product` lays them out with no pass.  Levels split into
    chains m, 2m, 4m, ... of one odd part, from the lowest level to twice
    the highest.  Each chain is planned on its own (:func:`_chain`), and
    the chains share the two free passes.
    """
    by_odd: dict[int, dict[int, int]] = {}
    for m, e in spec.factors:
        by_odd.setdefault(m // (m & -m), {})[m] = e
    chains = []
    for _, exps in sorted(by_odd.items()):
        low = min(exps)
        chains.append((low, [exps.get(low << j, 0)
                             for j in range((max(exps) // low).bit_length() + 1)]))

    def share(i: int, free: int) -> tuple[_Key, tuple]:
        if i == len(chains):
            return (0.0, 0.0), ()
        low, exps = chains[i]
        found = None
        # the last chain takes every free pass left: more never costs more
        for k in range(free + 1) if i + 1 < len(chains) else (free,):
            (price, total), levels = _chain(exps[0], tuple(exps[1:]), k)
            (rest_price, rest_total), rest = share(i + 1, free - k)
            key = (price / sqrt(low) + rest_price, total / sqrt(low) + rest_total)
            if found is None or key < found[0]:
                found = (key, tuple((low << j, level) for j, level in enumerate(levels)) + rest)
        return found

    factors = [(name, m, e) for m, (pair, t, s) in share(0, 2)[1]
               for name, e in {**pair, "jacobi": t, "eta": s}.items() if e]
    return tuple(sorted(factors, key=lambda f: (f[2] < 0, -_price(f[0], f[2]) / sqrt(f[1]))))


def _multiplies_first(factors: Iterable[Factor]) -> list[Factor]:
    """Multiply passes before divide passes.  Truncated products of unit
    series commute exactly, so the result is the same in any order, and
    the intermediates stay small integers for longer."""
    return sorted(factors, key=lambda factor: factor[2] < 0)


# (generator, m) -> (n, the terms below q^n): the highest n asked for yet
_STRETCHED: dict[tuple[Callable, int], tuple[int, tuple[tuple[int, int], ...]]] = {}


@cache
def _stretched_terms(terms, m: int, n: int) -> tuple[tuple[int, int], ...]:
    """The (m k, c) below q^n of the sum ``terms`` at q -> q^m.

    Each n is computed once.  The terms are generated only when n is
    above every n asked for before with this generator and m; a lower n
    is a prefix of those, cut where k reaches n.  Keyed by the generator,
    so a replaced ``SUMS`` row is never served stale terms."""
    top, stretched = _STRETCHED.get((terms, m), (0, ()))
    if n > top:
        stretched = tuple((m * k, c) for k, c in terms(-(-n // m)))
        _STRETCHED[terms, m] = n, stretched
        return stretched
    return stretched[:bisect_left(stretched, (n,))]


def apply_factors(coeffs: list[int], factors: Iterable[Factor]) -> None:
    """Multiply a dense coefficient list in place by a product of factors,
    multiply passes first (:func:`_multiplies_first`)."""
    for name, m, e in _multiplies_first(factors):
        sparse_pass(coeffs, _stretched_terms(SUMS[name][1], m, len(coeffs)), e)


def factor_product(factors: Iterable[Factor], order: int, shift: int = 0) -> Series:
    """q^shift times a product of factors, exact below ``order``; not cached."""
    return _Product(factors, shift).get(order)


def step(coeffs: Optional[list[int]], factors: Iterable[Factor], n: int) -> list[int]:
    """``coeffs`` times the product of ``factors``, in place by passes
    (:func:`apply_factors`).  ``None`` stands for the unit list of length
    n: that step out of 1 is built by :func:`factor_product`, which lays
    out its leading multiplies."""
    if coeffs is None:
        return list(factor_product(factors, n).coeffs)
    apply_factors(coeffs, factors)
    return coeffs


def power_sums(sums: Iterable[Iterable[tuple[int, int, int]]],
               factors: Sequence[Factor], order: int) -> Iterator[Series]:
    """For each list of (s, c, p) terms, the sum of c * q^s * X^p, X the
    product of ``factors``; yielded one at a time, in the order given.

    The powers of X that any sum needs are reached once, outward from
    X^0 = 1, and shared by every sum.  Each is one :func:`step` from the
    power before it, so the step out of 1 lays out its leading multiplies
    and every later step runs passes in place.
    """
    sums = [[t for t in terms if t[0] < order] for terms in sums]
    powers = {p for terms in sums for _, _, p in terms}
    low = min((s for terms in sums for s, _, _ in terms), default=0)
    n = order - low
    ladder = {0: [1] + [0] * (n - 1)}
    for top in {max(powers, default=0), min(powers, default=0)} - {0}:
        sign = 1 if top > 0 else -1
        move, x = [(name, m, sign * e) for name, m, e in factors], None
        for k in range(sign, top + sign, sign):
            x = step(x, move, n)
            if k in powers:
                ladder[k] = x[:]
    for terms in sums:
        out = [0] * (order - low)
        for s, c, p in terms:
            out[s - low:] = [o + c * y for o, y in zip(out[s - low:], ladder[p])]
        yield Series(low, out, order)


def eta_quotient(spec: EtaQuotientSpec, order: int) -> Series:
    """Expand q^shift * prod f_m^{e_m} exactly below ``order`` from its
    planned factors (:func:`plan_quotient`)."""
    return factor_product(plan_quotient(spec), order, spec.shift)


def eta_series(factors: Mapping[int, int] | Iterable[tuple[int, int]],
               order: int, shift: int = 0) -> Series:
    """Shorthand for ``eta_quotient(EtaQuotientSpec.make(...), order)``."""
    return eta_quotient(EtaQuotientSpec.make(factors, shift), order)


# ----------------------------------------------------------------------
# memoized series, each extended in place when a higher order is asked for

class _Product:
    """One cache entry: q^shift * source * prod of factors, its Series and
    the pass lists that an extension to a higher order reads.

    The product runs as stages, one per pass in :func:`apply_factors`
    order (multiplies, then divides).  Growing it from n0 to n
    coefficients computes only entries n0..n-1 of each stage
    (:func:`~crankq.series.sparse_pass` with ``start = n0``).  A multiply
    reads its input stage in full, and a divide reads its input's new
    entries and its own output.  So a stage's output is kept when it
    divides or feeds a multiply.  It is not kept when the cached Series
    holds it (the last stage), or when it can be rebuilt cheaply: the
    source, and the first two multiplies of the unit source.  Those are
    laid out sparse by sparse, the terms of the first sum (and 1) times
    the terms of the second, with no pass: O(t0 t1) steps for sums of t0
    and t1 terms, in place of a pass of t1 n.  A plan from
    :func:`plan_quotient` lists its two dearest multiplies first, so
    those are the two laid out.  When a divide or nothing follows them,
    an extension reads only their new entries, so it lays out only the
    pairs of terms that land in n0..n-1.
    """

    def __init__(self, factors: Iterable[Factor], shift: int = 0,
                 source: Optional[Callable[[int], list[int]]] = None):
        self.stages = [(name, m, 1 if e > 0 else -1)
                       for name, m, e in _multiplies_first(factors)
                       for _ in range(abs(e))]
        self.shift = shift
        self.source = source        # n -> first n coefficients; None is 1
        signs = [sign for _, _, sign in self.stages]
        # stages 0..laid-1 are laid out; a divide or nothing after them
        # reads only their new entries
        self.laid = 0 if source is not None else min(2, signs.count(1))
        self.partial = self.laid == len(signs) or signs[self.laid] < 0
        self.keep = [i + 1 < len(signs) and (sign < 0 or (
            signs[i + 1] > 0 and i >= self.laid))
            for i, sign in enumerate(signs)]
        self.kept: list[Optional[list[int]]] = [None] * len(self.stages)
        self.series: Optional[Series] = None
        self.lock = threading.Lock()

    def get(self, order: int) -> Series:
        """The product exact below ``order``, extended first if need be."""
        if order <= self.shift:
            raise ValueError(f"order {order} must exceed the shift {self.shift}")
        series = self.series
        if series is None or series.order < order:
            with self.lock:
                if self.series is None or self.series.order < order:
                    self._extend(order - self.shift)
                series = self.series
        return series.truncate(order)

    def _extend(self, n: int) -> None:
        # New lists replace the kept ones only with the new Series, so an
        # extension that raises leaves the entry as it was.
        final, kept = self.series, list(self.kept)
        n0 = 0 if final is None else final.order - self.shift
        prev = [1] + [0] * (n - 1) if self.source is None else self.source(n)
        support = ((0, 1),)         # the (k, c) of prev while it is laid out
        lo = n0 if self.partial else 0      # the first laid-out entry read
        for i, (name, m, sign) in enumerate(self.stages):
            terms = _stretched_terms(SUMS[name][1], m, n)
            last = i + 1 == len(self.stages)
            if not last:
                old = kept[i] or []
            elif final is None:
                old = []
            else:
                old = [0] * (final.valuation - self.shift) + list(final.coeffs)
            if sign < 0:
                cur = old + prev[n0:]
                sparse_pass(cur, terms, -1, n0)
            elif i < self.laid:
                cur = prev                  # one or two sparse sums, term by term
                for j, b in support:
                    for k, c in terms if j >= lo else terms[bisect_left(terms, (lo - j,)):]:
                        if j + k >= n:
                            break
                        cur[j + k] += b * c
                support += terms
                if last:
                    cur[:n0] = old
            else:
                cur = prev[:] if i and self.keep[i - 1] else prev
                sparse_pass(cur, terms, 1, n0)
                if last or self.keep[i]:
                    cur[:n0] = old
            if self.keep[i]:
                kept[i] = cur
            prev = cur
        self.kept, self.series = kept, Series(self.shift, prev, n + self.shift)


_CACHE: dict[object, _Product] = {}
_CACHE_LOCK = threading.Lock()


def _lookup(key: object, order: int) -> Series:
    # The global lock guards only the dict.  Each entry serializes its own
    # extensions; extending f reads C's entry, so no build may hold a lock
    # that C's extension also needs.
    with _CACHE_LOCK:
        entry = _CACHE.get(key)
        if entry is None:
            entry = _CACHE[key] = _new_entry(key)
    return entry.get(order)


def _new_entry(key: object) -> _Product:
    if key == "R":
        return _Product(rr_factors(1))
    if key is SeriesName.F_CONV:
        return _Product([("triangular", 1, 1)], source=_f_column)
    spec = NAMED_SPECS[key]
    return _Product(plan_quotient(spec), spec.shift)


def clear_cache() -> None:
    """Drop memoized series and their extension state (intended for
    benchmarks and tests)."""
    with _CACHE_LOCK:
        _CACHE.clear()


def rr_series(order: int) -> Series:
    """The Rogers-Ramanujan product R(q), cached and extended in place."""
    return _lookup("R", order)


def rr_stretch(m: int, order: int) -> Series:
    """R(q^m), built from its two theta factors."""
    return factor_product(rr_factors(m), order)


def _f_column(n: int) -> list[int]:
    """The first n coefficients of sum C(5j+4)/5 q^j, the source of f.

    f is this column times the triangular sum psi(q), so
    5*f(n) = sum_k C(5n + 4 - 5k(k+1)/2).  The division by 5 is exact and
    raises InexactDivision if any coefficient of the column resists it.
    """
    column = named_series(SeriesName.C_CRANK, 5 * n + 5).extract(5, 4).exact_div(5)
    return ([0] * column.valuation + list(column.coeffs))[:n]


def named_series(name: Union[SeriesName, str], order: int) -> Series:
    """Series for a registry name, exact below ``order``; memoized."""
    name = resolve_name(name)
    if order < 1:
        raise ValueError("order must be >= 1")
    return _lookup(name, order)


def binomial_congruence_check(m: int, k: int, order: int) -> CheckReport:
    """Verify f_m^(5^k) = f_{5m}^(5^(k-1)) mod 5^k coefficient-wise."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    modulus = 5 ** k
    diff = first_mismatch(eta_series({m: 5 ** k}, order),
                          eta_series({5 * m: 5 ** (k - 1)}, order), modulus=modulus)
    params = {"m": m, "k": k, "modulus": modulus}
    return CheckReport.from_failures("binom", params, order, [diff])


_QUOTIENT_TOKEN = re.compile(r"^(?:q\^(-?\d+)|f(\d+)(?:\^(-?\d+))?)$")


def parse_quotient(text: str) -> EtaQuotientSpec:
    """Parse the textual eta-quotient format.

    Grammar: factors joined by ``*``; each factor is ``q^<s>`` or
    ``f<m>`` or ``f<m>^<e>``. Whitespace is ignored and an exponent of 1
    may be omitted, e.g. ``q^-1 * f2 * f5^5 * f1^-1 * f10^-5``.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ValueError("empty eta-quotient string")
    shift = 0
    factors: list[tuple[int, int]] = []
    for token in compact.split("*"):
        match = _QUOTIENT_TOKEN.match(token)
        if match is None:
            raise ValueError(f"cannot parse eta-quotient factor {token!r}")
        if match.group(1) is not None:
            shift += int(match.group(1))
        else:
            m = int(match.group(2))
            e = int(match.group(3)) if match.group(3) is not None else 1
            factors.append((m, e))
    return EtaQuotientSpec.make(factors, shift)
