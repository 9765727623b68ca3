"""Generating functions built from Euler products.

The building blocks are the functions ``f_m = prod_{n>=1} (1 - q^{m n})``.
An :class:`EtaQuotientSpec` names a formal product
``q^shift * prod f_m^{e_m}``; a :class:`ResidueProductSpec` names a
product of ``(1 - q^n)`` over residue classes of n, which is how the
Rogers-Ramanujan continued fraction R(q) enters (without its classical
fractional power of q).

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
from typing import Callable, Iterable, Mapping, Union

from .report import CheckReport, first_mismatch
from .series import Series

__all__ = [
    "EtaQuotientSpec",
    "ResidueProductSpec",
    "SeriesName",
    "eta_quotient",
    "eta_series",
    "residue_product",
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


@dataclass(frozen=True)
class ResidueProductSpec:
    """Product of (1 - q^n)^e over n in fixed residue classes mod ``modulus``."""

    modulus: int
    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        for r, _ in self.terms:
            if not 1 <= r <= self.modulus:
                raise ValueError(f"residue {r} not in [1, {self.modulus}]")

    @classmethod
    def make(cls, modulus: int,
             terms: Iterable[tuple[int, int]]) -> "ResidueProductSpec":
        return cls(modulus=modulus, terms=tuple(terms))


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


_NAMED_SPECS: dict[SeriesName, EtaQuotientSpec] = {
    SeriesName.P_PARTITION: EtaQuotientSpec.make({1: -1}),
    SeriesName.C_CRANK: EtaQuotientSpec.make({1: 3, 2: -2}),
    SeriesName.A_RECIP: EtaQuotientSpec.make({1: -3, 2: 2}),
    SeriesName.D_CH: EtaQuotientSpec.make({1: 4, 2: 2}),
    SeriesName.H_CH: EtaQuotientSpec.make({1: 3, 2: 1}),
    SeriesName.K_PARAM: EtaQuotientSpec.make({1: -1, 2: 1, 5: 5, 10: -5}, shift=-1),
    SeriesName.A_CAP: EtaQuotientSpec.make({1: 2, 2: -4, 5: 6}),
}

_RR_SPEC = ResidueProductSpec.make(5, [(1, 1), (4, 1), (2, -1), (3, -1)])


def _euler_factor(m: int, order: int) -> Series:
    """f_m expanded by the pentagonal number theorem (sparse, O(sqrt N) terms)."""
    terms = {0: 1}
    k = 1
    while True:
        lo = m * k * (3 * k - 1) // 2
        if lo >= order:
            break
        sign = -1 if k % 2 else 1
        terms[lo] = sign
        hi = m * k * (3 * k + 1) // 2
        if hi < order:
            terms[hi] = sign
        k += 1
    return Series.from_terms(terms, order)


def eta_quotient(spec: EtaQuotientSpec, order: int) -> Series:
    """Expand q^shift * prod f_m^{e_m} exactly below ``order``.

    Denominator factors are collected into a single product that is
    inverted once, so there is exactly one inversion path to audit.
    """
    if order <= spec.shift:
        raise ValueError(f"order {order} must exceed the shift {spec.shift}")
    window = order - spec.shift
    num = Series.const(1, window)
    den = Series.const(1, window)
    for m, e in spec.factors:
        base = _euler_factor(m, window)
        if e > 0:
            num = num * base ** e
        else:
            den = den * base ** (-e)
    result = num if den.coeffs == (1,) else num * den.invert()
    return result.shift(spec.shift)


def eta_series(factors: Mapping[int, int] | Iterable[tuple[int, int]],
               order: int, shift: int = 0) -> Series:
    """Shorthand for ``eta_quotient(EtaQuotientSpec.make(...), order)``."""
    return eta_quotient(EtaQuotientSpec.make(factors, shift), order)


def _times_binomial(coeffs: list[int], x: int) -> None:
    """In-place multiply a dense coefficient list by (1 - q^x)."""
    for i in range(len(coeffs) - 1, x - 1, -1):
        coeffs[i] -= coeffs[i - x]


def residue_product(spec: ResidueProductSpec, order: int) -> Series:
    """Expand prod_{n >= 1, n = r mod M} (1 - q^n)^e exactly below ``order``."""
    if order < 1:
        raise ValueError("order must be >= 1")
    num = [1] + [0] * (order - 1)
    den = [1] + [0] * (order - 1)
    for r, e in spec.terms:
        if e == 0:
            continue
        target, reps = (num, e) if e > 0 else (den, -e)
        for n in range(r, order, spec.modulus):
            for _ in range(reps):
                _times_binomial(target, n)
    result = Series(0, num, order)
    if den != [1] + [0] * (order - 1):
        result = result * Series(0, den, order).invert()
    return result


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
    """The Rogers-Ramanujan residue-class product R(q), cached per order."""
    return _cached("R", order, lambda n: residue_product(_RR_SPEC, n))


def rr_stretch(m: int, order: int) -> Series:
    """R(q^m), built by stretching the cached R(q)."""
    if m == 1:
        return rr_series(order)
    inner = -((-order) // m)  # ceil(order / m)
    return rr_series(inner).stretch(m).truncate(order)


def _build_f_conv(order: int) -> Series:
    """Triangular-sum convolution of the exactly-divided C(5j+4) column.

    Equals sum f(n) q^n with 5*f(n) = sum_k C(5n + 4 - 5k(k+1)/2); the
    division by 5 is performed exactly and raises InexactDivision if any
    coefficient of the extracted column resists it.
    """
    from .theta import ThetaKind, theta_sum  # deferred: theta builds on etaq

    c_series = named_series(SeriesName.C_CRANK, 5 * order + 5)
    column = c_series.extract(5, 4).exact_div(5)
    tri = theta_sum(ThetaKind.TRIANGULAR, order)
    return tri * column


def named_series(name: Union[SeriesName, str], order: int) -> Series:
    """Series for a registry name, exact below ``order``; memoized."""
    name = resolve_name(name)
    if order < 1:
        raise ValueError("order must be >= 1")
    if name is SeriesName.F_CONV:
        return _cached(name, order, _build_f_conv)
    spec = _NAMED_SPECS[name]
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
