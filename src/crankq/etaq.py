"""Generating functions built as products of sparse theta factors.

The building blocks are the functions ``f_m = prod_{n>=1} (1 - q^{m n})``.
An :class:`EtaQuotientSpec` names a formal product
``q^shift * prod f_m^{e_m}``.  Every named series and the
Rogers-Ramanujan product R(q) (without its classical fractional power
of q) are built from one family of sparse factors
``sum_k (-1)^k q^(k(pk - r)/2)``: a factor to the power e is |e|
:func:`~crankq.series.sparse_pass` passes over a dense coefficient list,
and a negative power divides.

:func:`named_series` exposes the closed registry of sequences the
verification tasks talk about: the partition numbers, the crank parity
sequence C(n), its reciprocal a(n), and the auxiliary products used by
the congruence proofs.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .report import CheckReport, first_mismatch
from .series import Series, sparse_pass

__all__ = [
    "EtaQuotientSpec",
    "SeriesName",
    "eta_quotient",
    "eta_series",
    "theta_terms",
    "eta_factors",
    "rr_factors",
    "apply_factors",
    "factor_product",
    "climb",
    "power_sums",
    "power_sum",
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

# A factor (p, r, e) is (sum_k (-1)^k q^(k(pk - r)/2))^e over all integers
# k, with 0 < r < p and p = r mod 2.  By the Jacobi triple product f_m is
# (3m, m, 1), and R(q^m) = f(-q^m, -q^4m) / f(-q^2m, -q^3m) is (5m, 3m, 1)
# times (5m, m, -1).
Factor = tuple[int, int, int]


def theta_terms(p: int, r: int, order: int) -> list[tuple[int, int]]:
    """The k != 0 terms (exponent, sign) of sum_k (-1)^k q^(k(pk - r)/2) below
    ``order``, ascending: k = j comes before k = -j, which comes before k = j + 1."""
    if not 0 < r < p or (p - r) % 2:
        raise ValueError(f"theta factor ({p}, {r}) needs 0 < r < p and p = r mod 2")
    terms = []
    j = 1
    while j * (p * j - r) // 2 < order:
        sign = -1 if j % 2 else 1
        terms.append((j * (p * j - r) // 2, sign))
        if j * (p * j + r) // 2 < order:
            terms.append((j * (p * j + r) // 2, sign))
        j += 1
    return terms


def eta_factors(spec: EtaQuotientSpec) -> list[Factor]:
    """The factors of an eta quotient, without its shift."""
    return [(3 * m, m, e) for m, e in spec.factors]


def rr_factors(m: int, e: int = 1) -> list[Factor]:
    """The factors of R(q^m)^e."""
    return [(5 * m, 3 * m, e), (5 * m, m, -e)]


def apply_factors(coeffs: list[int], factors: Iterable[Factor]) -> None:
    """Multiply a dense coefficient list in place by a product of factors."""
    for p, r, e in factors:
        sparse_pass(coeffs, theta_terms(p, r, len(coeffs)), e)


def factor_product(factors: Iterable[Factor], order: int, shift: int = 0) -> Series:
    """q^shift times a product of factors, exact below ``order``."""
    if order <= shift:
        raise ValueError(f"order {order} must exceed the shift {shift}")
    coeffs = [1] + [0] * (order - shift - 1)
    apply_factors(coeffs, factors)
    return Series(shift, coeffs, order)


def climb(coeffs: list[int], factors: Sequence[Factor],
          steps: int) -> Iterator[list[int]]:
    """Yield ``coeffs`` times X^0, X^1, ..., X^steps, X the product of ``factors``.

    One list is multiplied in place by X between yields (divided by X when
    ``steps`` is negative), so each step costs one set of passes and a
    caller that keeps a power keeps a copy.
    """
    step = factors if steps >= 0 else [(p, r, -e) for p, r, e in factors]
    yield coeffs
    for _ in range(abs(steps)):
        apply_factors(coeffs, step)
        yield coeffs


def power_sums(sums: Iterable[Iterable[tuple[int, int, int]]],
               factors: Sequence[Factor], order: int) -> Iterator[Series]:
    """For each list of (s, c, p) terms, the sum of c * q^s * X^p, X the
    product of ``factors``; yielded one at a time, in the order given.

    The powers of X that any sum needs are climbed once, outward from
    X^0 = 1, and shared by every sum.
    """
    sums = [[t for t in terms if t[0] < order] for terms in sums]
    powers = {p for terms in sums for _, _, p in terms}
    low = min((s for terms in sums for s, _, _ in terms), default=0)
    ladder = {}
    for top in (max(powers, default=0), min(powers, default=0)):
        x = [1] + [0] * (order - low - 1)
        for k, xk in enumerate(climb(x, factors, top)):
            p = k if top >= 0 else -k
            if p in powers:
                ladder[p] = xk[:]
    for terms in sums:
        out = [0] * (order - low)
        for s, c, p in terms:
            out[s - low:] = [o + c * y for o, y in zip(out[s - low:], ladder[p])]
        yield Series(low, out, order)


def power_sum(terms: Iterable[tuple[int, int, int]], factors: Sequence[Factor],
              order: int) -> Series:
    """Sum of c * q^s * X^p over (s, c, p) terms: :func:`power_sums` of one."""
    return next(power_sums([terms], factors, order))


def eta_quotient(spec: EtaQuotientSpec, order: int) -> Series:
    """Expand q^shift * prod f_m^{e_m} exactly below ``order``: |e_m| passes per f_m."""
    return factor_product(eta_factors(spec), order, spec.shift)


def eta_series(factors: Mapping[int, int] | Iterable[tuple[int, int]],
               order: int, shift: int = 0) -> Series:
    """Shorthand for ``eta_quotient(EtaQuotientSpec.make(...), order)``."""
    return eta_quotient(EtaQuotientSpec.make(factors, shift), order)


# ----------------------------------------------------------------------
# memoized named series (single-writer cache; readers always get an
# immutable Series truncated to exactly the order they asked for)

_CACHE: dict[object, Series] = {}
_CACHE_LOCK = threading.Lock()


def _cached(key: object, order: int, build: Callable[[int], Series]) -> Series:
    # The lock guards only the dict: builders are pure (a racing duplicate
    # build returns an identical value) and may themselves consult the
    # cache, so they must run unlocked.
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
    if hit is not None and hit.order >= order:
        return hit.truncate(order)
    fresh = build(order)
    with _CACHE_LOCK:
        existing = _CACHE.get(key)
        if existing is None or existing.order < fresh.order:
            _CACHE[key] = fresh
    return fresh.truncate(order)


def clear_cache() -> None:
    """Drop memoized series (intended for benchmarks and tests)."""
    with _CACHE_LOCK:
        _CACHE.clear()


def rr_series(order: int) -> Series:
    """The Rogers-Ramanujan product R(q), cached per order."""
    return _cached("R", order, partial(rr_stretch, 1))


def rr_stretch(m: int, order: int) -> Series:
    """R(q^m), built from its two theta factors."""
    return factor_product(rr_factors(m), order)


def _build_f_conv(order: int) -> Series:
    """Triangular-sum convolution of the exactly-divided C(5j+4) column.

    Equals sum f(n) q^n with 5*f(n) = sum_k C(5n + 4 - 5k(k+1)/2); the
    division by 5 is performed exactly and raises InexactDivision if any
    coefficient of the extracted column resists it.
    """
    from .theta import ThetaKind, theta_sum  # deferred: theta builds on etaq

    c_series = named_series(SeriesName.C_CRANK, 5 * order + 5)
    column = c_series.extract(5, 4).exact_div(5).truncate(order)
    coeffs = list(column.coeffs)
    sparse_pass(coeffs, list(theta_sum(ThetaKind.TRIANGULAR, order).terms())[1:])
    return Series(column.valuation, coeffs, order)


def named_series(name: Union[SeriesName, str], order: int) -> Series:
    """Series for a registry name, exact below ``order``; memoized."""
    name = resolve_name(name)
    if order < 1:
        raise ValueError("order must be >= 1")
    if name is SeriesName.F_CONV:
        return _cached(name, order, _build_f_conv)
    spec = NAMED_SPECS[name]
    return _cached(name, order, lambda n: eta_quotient(spec, n))


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
