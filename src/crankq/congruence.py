"""Combinatorial oracles, weighted finite sums and congruence scans.

The oracles enumerate partitions outright and know nothing about series
arithmetic, so they anchor the generating-function engine from the
combinatorial side.  :func:`check_progression` drives the generic claim
"this weighted sum over an arithmetic progression vanishes modulo M",
and :func:`check_theorem` names every such claim (plus the exact
identities and intermediate column reductions) under a stable task id.

One genuine subtlety is pinned down here rather than papered over: at
n = 1 the crank enumeration gives -1 while the crank parity generating
function f_1^3/f_2^2 has coefficient -3.  The sequence defined by the
generating function is the object every congruence is about, so the
oracle comparison excludes n = 1 and reports the discrepancy explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from math import comb
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from . import theta
from .errors import EnumerationCapExceeded, InexactDivision
from .etaq import SeriesName, eta_series, named_series, resolve_name
from .report import CheckReport, first_mismatch
from .series import Series
from .theta import ThetaKind

__all__ = [
    "Partition",
    "crank",
    "partitions",
    "crank_parity_oracle",
    "colored_partition_oracle",
    "WeightKind",
    "CongruenceFamily",
    "weighted_sum",
    "check_progression",
    "solve_24n_condition",
    "cooper_hirschhorn_check",
    "check_theorem",
    "theorem_ids",
    "CRANK_ORACLE_CAP",
    "COLORED_ORACLE_CAP",
    "ORACLES",
    "oracle_rows",
]

CRANK_ORACLE_CAP = 45
COLORED_ORACLE_CAP = 40


@dataclass(frozen=True)
class Partition:
    """Non-increasing positive parts; the empty partition is allowed."""

    parts: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
            if prev is not None and p > prev:
                raise ValueError("parts must be non-increasing")
            prev = p

    @property
    def num_ones(self) -> int:
        return sum(1 for p in self.parts if p == 1)

    @property
    def largest(self) -> int:
        return self.parts[0] if self.parts else 0

    def total(self) -> int:
        return sum(self.parts)


def crank(partition: Union[Partition, Sequence[int]]) -> int:
    """Crank statistic: the largest part when there are no ones, else the
    number of parts exceeding the count of ones minus that count.

    The empty partition has crank 0 (even), consistent with the
    constant term of the crank parity generating function.
    """
    if not isinstance(partition, Partition):
        partition = Partition(tuple(partition))
    ones = partition.num_ones
    if ones == 0:
        return partition.largest
    above = sum(1 for p in partition.parts if p > ones)
    return above - ones


def partitions(n: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    cap = min(max_part or n, n)
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def crank_parity_oracle(n: int, cap: int = CRANK_ORACLE_CAP) -> int:
    """(# partitions of n with even crank) - (# with odd crank), by
    exhaustive enumeration."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > cap:
        raise EnumerationCapExceeded(f"n = {n} exceeds the enumeration cap {cap}")
    total = 0
    for parts in partitions(n):
        total += -1 if crank(Partition(parts)) % 2 else 1
    return total


def colored_partition_oracle(n: int, cap: int = COLORED_ORACLE_CAP) -> int:
    """Partitions of n with each odd part in one of three colors.

    Colored copies of equal size and color are indistinguishable, so a
    part size with multiplicity k contributes the number of 3-color
    multisets of size k, C(k+2, 2).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > cap:
        raise EnumerationCapExceeded(f"n = {n} exceeds the enumeration cap {cap}")
    total = 0
    for parts in partitions(n):
        ways = 1
        for size in set(parts):
            if size % 2:
                ways *= comb(parts.count(size) + 2, 2)
        total += ways
    return total


class OracleSpec(NamedTuple):
    """How an enumeration oracle is compared with its series."""

    label: str
    series: SeriesName
    cap: int
    default_n_max: int
    excluded: tuple[int, ...] = ()   # documented discrepancies, not compared


ORACLES = {
    "crank": OracleSpec("crank-parity", SeriesName.C_CRANK, CRANK_ORACLE_CAP, 40, (1,)),
    "colored": OracleSpec("colored-partition", SeriesName.A_RECIP,
                          COLORED_ORACLE_CAP, 35),
}


def oracle_rows(which: str, n_max: int) -> tuple[list[dict], list[dict]]:
    """Enumeration against series coefficient for 0 <= n <= n_max.

    Returns every row and, in n order, the rows that disagree outside the
    oracle's excluded n.  An n_max above the cap raises before any work.
    """
    spec = ORACLES[which]
    if n_max > spec.cap:
        raise EnumerationCapExceeded(
            f"n_max = {n_max} exceeds the {spec.label} enumeration cap {spec.cap}")
    # resolved per call, not stored in ORACLES, so that wrapping the module
    # functions (as the benchmark tracer does) also covers these calls
    count = crank_parity_oracle if which == "crank" else colored_partition_oracle
    series = named_series(spec.series, n_max + 1)
    rows = [{"n": n, "enumeration": count(n), "coefficient": series.coeff(n)}
            for n in range(n_max + 1)]
    mismatches = [row for row in rows if row["n"] not in spec.excluded
                  and row["enumeration"] != row["coefficient"]]
    return rows, mismatches


# ----------------------------------------------------------------------
# weighted progression sums

class WeightKind(Enum):
    NONE = "none"
    TRIANGULAR_SUM = "triangular"
    SQUARES_SUM = "squares"
    PENT_6K1_SUM = "pent"
    CUBIC_3K1_SUM = "cubic"


_THETA_OF = {
    WeightKind.TRIANGULAR_SUM: ThetaKind.TRIANGULAR,
    WeightKind.SQUARES_SUM: ThetaKind.SQUARES,
    WeightKind.PENT_6K1_SUM: ThetaKind.PENT_6K1,
    WeightKind.CUBIC_3K1_SUM: ThetaKind.CUBIC_3K1,
}


@dataclass(frozen=True)
class CongruenceFamily:
    """One vanishing claim: for every n >= 0, the weighted sum

        sum_k weight(k) * seq(stride*n + offset - scale*g(k))

    divided exactly by ``pre_divisor`` vanishes modulo ``modulus``.
    Negative arguments contribute nothing; weight NONE degenerates to a
    single coefficient.
    """

    sequence: SeriesName
    modulus: int
    stride: int
    offset: int
    weight: WeightKind = WeightKind.NONE
    scale: int = 1
    pre_divisor: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sequence", resolve_name(self.sequence))
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if self.stride < 1 or self.offset < 0:
            raise ValueError("stride must be >= 1 and offset >= 0")
        if self.scale < 1 or self.pre_divisor < 1:
            raise ValueError("scale and pre_divisor must be >= 1")

    def required_order(self, n_max: int) -> int:
        """Smallest series order covering every index the scan reads."""
        return self.stride * n_max + self.offset + 1

    def params(self) -> dict:
        out = {
            "sequence": self.sequence.value,
            "modulus": self.modulus,
            "stride": self.stride,
            "offset": self.offset,
        }
        if self.weight is not WeightKind.NONE:
            out["weight"] = self.weight.value
            out["scale"] = self.scale
        if self.pre_divisor != 1:
            out["pre_divisor"] = self.pre_divisor
        return out


def weighted_sum(family: CongruenceFamily, n: int,
                 series: Optional[Series] = None) -> int:
    """The family's exact finite sum at progression step n.

    Raises :class:`InexactDivision` if the pre-divisor fails, which
    falsifies the divisibility the claim silently assumes.
    """
    base = family.stride * n + family.offset
    if series is None:
        series = named_series(family.sequence, base + 1)
    if family.weight is WeightKind.NONE:
        total = series.coeff(base)
    else:
        kind = _THETA_OF[family.weight]
        bilateral = theta.is_bilateral(kind)
        total = 0
        j = 0
        while True:
            alive = False
            for k in ((j, -j) if bilateral and j else (j,)):
                arg = base - family.scale * theta.exponent(kind, k)
                if arg >= 0:
                    alive = True
                    total += theta.weight(kind, k) * series.coeff(arg)
            if j and not alive:
                break
            j += 1
    if family.pre_divisor == 1:
        return total
    quot, rem = divmod(total, family.pre_divisor)
    if rem:
        raise InexactDivision(
            f"sum {total} at n = {n} is not divisible by {family.pre_divisor}"
        )
    return quot


def check_progression(family: CongruenceFamily, n_max: int,
                      series: Optional[Series] = None,
                      task: str = "progression") -> CheckReport:
    """Scan the family for 0 <= n <= n_max; first violation is the witness."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    order = family.required_order(n_max)
    if series is None:
        series = named_series(family.sequence, order)
    params = family.params()
    params["n_max"] = n_max
    residues = ((n, weighted_sum(family, n, series) % family.modulus)
                for n in range(n_max + 1))
    failures = ({"n": n, "index": family.stride * n + family.offset, "residue": r}
                for n, r in residues if r)
    return CheckReport.from_failures(task, params, order, failures)


def _n_max_for(n_max: Optional[int], order: Optional[int], stride: int,
               offset: int, default: int) -> int:
    """Scan length of a progression stride*n + offset: ``n_max`` when
    given, else the most steps whose index stays below ``order`` (at least
    one step), else ``default``."""
    if n_max is not None:
        return n_max
    if order is None:
        return default
    return max((order - 1 - offset) // stride, 0)


def solve_24n_condition(alpha: int) -> tuple[int, int]:
    """The unique residue class of n with 24n = 1 mod 5^(2*alpha+1)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    modulus = 5 ** (2 * alpha + 1)
    return pow(24, -1, modulus), modulus


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def cooper_hirschhorn_check(sequence: Union[SeriesName, str], p: int,
                            n_max: Optional[int] = None, corollary_n_max: int = 5,
                            order: Optional[int] = None) -> CheckReport:
    """Multiplicative coefficient relations for f_1^4 f_2^2 and f_1^3 f_2.

    For the quartic product (sequence "d") only p = 7 is admissible and
    the relation is d(7n + 16) = 49 d(n/7).  For the cubic product
    (sequence "h") p must be a prime in {13, 17, 19, 23} mod 24; the
    relation h(pn + 5(p^2-1)/24) = +- p h(n/p) holds with one sign per
    prime, which is inferred from the first index where the right side
    is nonzero and then enforced everywhere, together with the vanishing
    corollary h(p^2 n + p r + 5(p^2-1)/24) = 0 for r = 1 .. p-1.

    The relation is checked for n <= n_max; n_max defaults to 100, or,
    given ``order``, to the most n whose index p n + shift stays below it.
    """
    sequence = resolve_name(sequence)
    if sequence is SeriesName.D_CH:
        if p != 7:
            raise ValueError("the quartic-product relation requires p = 7")
        shift, factor = 16, 49
        n_max = _n_max_for(n_max, order, 7, shift, 100)
        order = 7 * n_max + shift + 1
        series = named_series(sequence, order)
        params = {"sequence": sequence.value, "p": p, "n_max": n_max}
        pairs = ((n, series.coeff(7 * n + shift),
                  factor * series.coeff(n // 7) if n % 7 == 0 else 0)
                 for n in range(n_max + 1))
        failures = ({"n": n, "lhs": lhs, "rhs": rhs}
                    for n, lhs, rhs in pairs if lhs != rhs)
        return CheckReport.from_failures("ch-d", params, order, failures)

    if sequence is not SeriesName.H_CH:
        raise ValueError(f"no multiplicative relation registered for {sequence}")
    if not _is_prime(p) or p % 24 not in (13, 17, 19, 23):
        raise ValueError("p must be a prime in {13, 17, 19, 23} mod 24")
    shift5, rem = divmod(5 * (p * p - 1), 24)
    assert rem == 0
    n_max = _n_max_for(n_max, order, p, shift5, 100)
    order = max(p * n_max, p * p * corollary_n_max + p * (p - 1)) + shift5 + 1
    series = named_series(sequence, order)
    params = {"sequence": sequence.value, "p": p, "n_max": n_max,
              "corollary_n_max": corollary_n_max, "shift": shift5}

    def report(*failures: dict) -> CheckReport:
        return CheckReport.from_failures("ch-h", params, order, failures)

    sign = 0
    for n in range(n_max + 1):
        lhs = series.coeff(p * n + shift5)
        rhs = series.coeff(n // p) if n % p == 0 else 0
        if sign == 0 and rhs != 0:
            if lhs == p * rhs:
                sign = 1
            elif lhs == -p * rhs:
                sign = -1
            else:
                return report({"n": n, "lhs": lhs, "rhs_times_p": p * rhs,
                               "reason": "no consistent sign"})
        elif lhs != sign * p * rhs:
            return report({"n": n, "lhs": lhs, "rhs_times_p": sign * p * rhs,
                           "sign": sign})
    params["sign"] = sign if sign else None
    for n in range(corollary_n_max + 1):
        for r in range(1, p):
            idx = p * p * n + p * r + shift5
            value = series.coeff(idx)
            if value != 0:
                return report({"n": n, "r": r, "index": idx, "value": value,
                               "reason": "corollary vanishing"})
    return report()


# ----------------------------------------------------------------------
# named theorem tasks
#
# Every task below takes its own defaults; a task that scans n steps also
# takes ``order`` and then scans every step whose index stays below it.

def _check_thm11(alpha: Optional[int] = None, n_max: Optional[int] = None,
                 order: Optional[int] = None) -> CheckReport:
    """Divisibility of the crank parity sequence by 5^(alpha+1) on the
    residue class solving 24n = 1 mod 5^(2*alpha+1)."""
    alphas = [0, 1] if alpha is None else [alpha]
    defaults = {0: 200, 1: 8}
    classes, failures, reach = [], [], 0
    for a in alphas:
        residue, cls_mod = solve_24n_condition(a)
        steps = _n_max_for(n_max, order, cls_mod, residue, defaults.get(a, 3))
        family = CongruenceFamily(SeriesName.C_CRANK, 5 ** (a + 1),
                                  stride=cls_mod, offset=residue)
        part = check_progression(family, steps, task="thm11")
        classes.append({"alpha": a, "residue": residue, "modulus": cls_mod,
                        "n_max": steps})
        if not part.passed:
            failures.append(dict(part.witness, alpha=a))
        reach = max(reach, part.order)
    params = {"alphas": alphas, "classes": classes}
    return CheckReport.from_failures("thm11", params, reach, failures)


def _check_thm12(order: int = 300) -> CheckReport:
    """Exact identity: the C(5n+4) column equals 5 f_1^2 f_5 f_10^2 / f_2^4."""
    c_series = named_series(SeriesName.C_CRANK, 5 * order + 5)
    rhs = eta_series({1: 2, 5: 1, 10: 2, 2: -4}, order) * 5
    params = {"identity": "C(5n+4) = 5*f1^2*f5*f10^2/f2^4"}
    return CheckReport.from_failures(
        "thm12", params, order,
        [first_mismatch(c_series.extract(5, 4), rhs, upto=order)])


def _check_5p2_families(task: str, p: int, shift: int, weight: WeightKind,
                        n_max: Optional[int], order: Optional[int]) -> CheckReport:
    """Weighted sums of the reciprocal sequence vanish mod 5 on
    5p^2 n + 5pr + shift for r = 1 .. p-1; the first r that fails is named
    in the witness.  n_max defaults to 1."""
    families = [CongruenceFamily(SeriesName.A_RECIP, 5, stride=5 * p * p,
                                 offset=5 * p * r + shift, weight=weight, scale=5)
                for r in range(1, p)]
    last = families[-1]
    n_max = _n_max_for(n_max, order, last.stride, last.offset, 1)
    order = last.required_order(n_max)
    series = named_series(SeriesName.A_RECIP, order)
    params = {"p": p, "shift": shift, "n_max": n_max, "r_max": p - 1}
    parts = (check_progression(family, n_max, series=series, task=task)
             for family in families)
    failures = (dict(part.witness, r=r)
                for r, part in enumerate(parts, start=1) if not part.passed)
    return CheckReport.from_failures(task, params, order, failures)


def _check_thm16(p: int = 13, n_max: Optional[int] = None,
                 order: Optional[int] = None) -> CheckReport:
    """Alternating-square sums of the reciprocal sequence vanish mod 5 on
    the progressions 5p^2 n + 5pr + (25p^2-1)/24, r = 1 .. p-1."""
    if not _is_prime(p) or p % 24 not in (13, 17, 19, 23):
        raise ValueError("p must be a prime in {13, 17, 19, 23} mod 24")
    shift, rem = divmod(25 * p * p - 1, 24)
    assert rem == 0
    return _check_5p2_families("thm16", p, shift, WeightKind.SQUARES_SUM,
                               n_max, order)


def _check_cr2(p: int = 7, n_max: Optional[int] = None,
               order: Optional[int] = None) -> CheckReport:
    """Alternating cubic-weighted sums of the reciprocal sequence vanish
    mod 5 on 5p^2 n + 5pr + (65p^2-41)/24, r = 1 .. p-1."""
    if not _is_prime(p) or p % 12 not in (7, 11):
        raise ValueError("p must be a prime in {7, 11} mod 12")
    shift, rem = divmod(65 * p * p - 41, 24)
    assert rem == 0
    return _check_5p2_families("cr2", p, shift, WeightKind.CUBIC_3K1_SUM,
                               n_max, order)


def _check_a54(order: int = 150, n_max: int = 100) -> CheckReport:
    """The A(5n+4) column reduces to f_2^2 f_10^2 mod 5, hence the odd
    half A(10n+9) vanishes mod 5."""
    big = named_series(SeriesName.A_CAP,
                       max(5 * order + 5, 10 * n_max + 10))
    params = {"order": order, "n_max": n_max}
    column_diff = first_mismatch(big.extract(5, 4), eta_series({2: 2, 10: 2}, order),
                                 modulus=5, upto=order)
    family = CongruenceFamily(SeriesName.A_CAP, 5, stride=10, offset=9)
    odd_half = check_progression(family, n_max, series=big, task="a54")
    return CheckReport.from_failures("a54", params, order,
                                     [column_diff, odd_half.witness])


def _check_a51(order: int = 150) -> CheckReport:
    """The a(5n+1) column reduces to 3 f_1 f_2^2 mod 5."""
    column = named_series(SeriesName.A_RECIP, 5 * order + 2).extract(5, 1)
    target = eta_series({1: 1, 2: 2}, order) * 3
    return CheckReport.from_failures(
        "a51", {"order": order}, order,
        [first_mismatch(column, target, modulus=5, upto=order)])


def _check_f52(order: int = 100, n_max: int = 10,
               which: str = "both") -> CheckReport:
    """The f(5n+2) column against its quoted three-term reduction mod 25,
    plus the vanishing f(25n+22) = 0 mod 25.

    The quoted middle term is -5q f_10^2/(f_2 f_5^2); the identity as
    quoted is false from exponent 11 on (the surrounding exact algebra
    forces f_10^5 there), so the "identity" part of this task fails with
    a witness by construction.  See :func:`_check_f52_corrected` for the
    repaired form, which does hold.  The vanishing part is unaffected.
    """
    if which not in ("both", "identity", "vanishing"):
        raise ValueError(f"unknown f52 selector {which!r}")
    big = named_series(SeriesName.F_CONV,
                       max(5 * order + 3, 25 * n_max + 23))
    params = {"order": order, "n_max": n_max, "which": which}
    failures = []
    if which in ("both", "identity"):
        target = (eta_series({1: 3, 10: 2, 2: -2, 5: -1}, order)
                  + eta_series({10: 2, 2: -1, 5: -2}, order, shift=1) * (-5)
                  + eta_series({1: 2, 10: 8, 5: -4}, order, shift=2) * 5)
        diff = first_mismatch(big.extract(5, 2), target, modulus=25, upto=order)
        if diff:
            failures.append({"check": "identity", **diff})
    if which in ("both", "vanishing"):
        family = CongruenceFamily(SeriesName.F_CONV, 25, stride=25, offset=22)
        part = check_progression(family, n_max, series=big, task="f52")
        if not part.passed:
            failures.append(dict(part.witness, check="vanishing"))
    return CheckReport.from_failures("f52", params, order, failures)


def _check_f52_corrected(order: int = 100) -> CheckReport:
    """Repaired forms of the f(5n+2) reduction, both of which do hold.

    Exact: the column equals f_1^3 f_10^2/(f_2^2 f_5)
    - 5q f_1^5 f_10^6/(f_2^6 f_5^3) + 5q^2 f_1^7 f_10^10/(f_2^10 f_5^5).
    Mod 25: the middle term collapses to -5q f_10^5/(f_2 f_5^2).
    """
    column = named_series(SeriesName.F_CONV, 5 * order + 3).extract(5, 2)
    exact = (eta_series({1: 3, 10: 2, 2: -2, 5: -1}, order)
             + eta_series({1: 5, 10: 6, 2: -6, 5: -3}, order, shift=1) * (-5)
             + eta_series({1: 7, 10: 10, 2: -10, 5: -5}, order, shift=2) * 5)
    reduced = (eta_series({1: 3, 10: 2, 2: -2, 5: -1}, order)
               + eta_series({10: 5, 2: -1, 5: -2}, order, shift=1) * (-5)
               + eta_series({1: 2, 10: 8, 5: -4}, order, shift=2) * 5)
    failures = []
    for check, target, modulus in (("exact", exact, None), ("mod25", reduced, 25)):
        diff = first_mismatch(column, target, modulus=modulus, upto=order)
        if diff:
            failures.append({"check": check, **diff})
    return CheckReport.from_failures("f52-corrected", {"order": order}, order,
                                     failures)


def _oracle_n_max(which: str, n_max: Optional[int], order: Optional[int]) -> int:
    return _n_max_for(n_max, order, 1, 0, ORACLES[which].default_n_max)


def _check_oracle_crank(n_max: Optional[int] = None,
                        order: Optional[int] = None) -> CheckReport:
    """Enumeration oracle against the series coefficients, excluding the
    documented n = 1 discrepancy (enumeration -1 vs coefficient -3)."""
    n_max = _oracle_n_max("crank", n_max, order)
    rows, mismatches = oracle_rows("crank", n_max)
    params = {"n_max": n_max, "excluded": list(ORACLES["crank"].excluded),
              "n1_discrepancy": rows[1] if n_max >= 1 else None}
    return CheckReport.from_failures("oracle-crank", params, n_max + 1, mismatches)


def _check_oracle_colored(n_max: Optional[int] = None,
                          order: Optional[int] = None) -> CheckReport:
    """Colored-partition enumeration against the reciprocal series."""
    n_max = _oracle_n_max("colored", n_max, order)
    _, mismatches = oracle_rows("colored", n_max)
    return CheckReport.from_failures("oracle-colored", {"n_max": n_max},
                                     n_max + 1, mismatches)


# task id -> (family, default n_max)
_PROGRESSIONS: dict[str, tuple[CongruenceFamily, int]] = {
    "thm13": (CongruenceFamily(SeriesName.C_CRANK, 5, stride=50, offset=49,
                               weight=WeightKind.PENT_6K1_SUM, scale=25,
                               pre_divisor=5), 10),
    "thm14": (CongruenceFamily(SeriesName.A_RECIP, 7, stride=7, offset=2), 100),
    "thm15a": (CongruenceFamily(SeriesName.A_RECIP, 5, stride=25, offset=16,
                                weight=WeightKind.TRIANGULAR_SUM, scale=5), 20),
    "thm15b": (CongruenceFamily(SeriesName.C_CRANK, 25, stride=125, offset=114,
                                weight=WeightKind.TRIANGULAR_SUM, scale=5,
                                pre_divisor=5), 7),
    "cr1": (CongruenceFamily(SeriesName.A_RECIP, 5, stride=25, offset=21,
                             weight=WeightKind.PENT_6K1_SUM, scale=5), 20),
    "smoke5": (CongruenceFamily(SeriesName.P_PARTITION, 5, stride=5, offset=4), 100),
    "smoke7": (CongruenceFamily(SeriesName.P_PARTITION, 7, stride=7, offset=5), 100),
    "smoke11": (CongruenceFamily(SeriesName.P_PARTITION, 11, stride=11, offset=6),
                100),
}


def _check_family(tid: str, n_max: Optional[int] = None,
                  order: Optional[int] = None) -> CheckReport:
    family, default = _PROGRESSIONS[tid]
    steps = _n_max_for(n_max, order, family.stride, family.offset, default)
    return check_progression(family, steps, task=tid)


_THEOREMS: dict[str, Callable[..., CheckReport]] = {
    **{tid: partial(_check_family, tid) for tid in _PROGRESSIONS},
    "thm11": _check_thm11,
    "thm12": _check_thm12,
    "thm16": _check_thm16,
    "cr2": _check_cr2,
    "ch-d": partial(cooper_hirschhorn_check, SeriesName.D_CH, p=7),
    "ch-h": partial(cooper_hirschhorn_check, SeriesName.H_CH, p=13),
    "a54": _check_a54,
    "a51": _check_a51,
    "f52": _check_f52,
    "f52-corrected": _check_f52_corrected,
    "oracle-crank": _check_oracle_crank,
    "oracle-colored": _check_oracle_colored,
}


def theorem_ids() -> list[str]:
    """Stable ids accepted by :func:`check_theorem`."""
    return sorted(_THEOREMS)


def check_theorem(theorem_id: str, **params) -> CheckReport:
    """Run one named verification task and return its report.

    Identity tasks accept ``order``; scanning tasks accept ``n_max``, or
    ``order`` to scan every step whose index stays below it; the
    prime-indexed families also accept ``p`` and thm11 ``alpha``.
    Unknown keywords for a task raise TypeError, unknown ids raise
    ValueError.
    """
    runner = _THEOREMS.get(theorem_id)
    if runner is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    return runner(**params)
