"""Combinatorial oracles, weighted finite sums and congruence scans.

The oracles count partitions from their combinatorial definitions, on
plain integer lists, in one O(n_max^2) pass for every n <= n_max; they
use nothing of the series arithmetic, so they anchor the engine from the
combinatorial side.  :func:`check_progression` drives the generic claim
"this weighted sum over an arithmetic progression vanishes modulo M";
the named claims of the paper, the multiplicative coefficient relations
among them, are checked and bound to task ids in :mod:`crankq.tasks`,
on top of this machinery.

One genuine subtlety is pinned down here rather than papered over: at
n = 1 the crank count gives -1 while the crank parity generating
function f_1^3/f_2^2 has coefficient -3.  The sequence defined by the
generating function is the object every congruence is about, so the
oracle comparison excludes n = 1 and reports the discrepancy explicitly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple, Optional

from .errors import EnumerationCapExceeded, InexactDivision
from .etaq import SUMS, SeriesName, ThetaKind, _stretched_terms, named_series, resolve_name
from .report import CheckReport
from .series import Series

__all__ = [
    "crank_parity_oracle",
    "colored_partition_oracle",
    "CongruenceFamily",
    "weighted_sum",
    "check_progression",
    "solve_24n_condition",
    "prime_shift",
    "ORACLE_CAP",
    "ORACLES",
    "oracle_rows",
]

ORACLE_CAP = 1000


def crank_parity_oracle(n_max: int) -> list[int]:
    """(# partitions of n with even crank) - (# with odd crank) for
    n = 0 .. n_max, counted without listing a partition.

    Split the partitions by w, their number of ones (Andrews-Garvan 1988).
    With w = 0 the crank is the largest part L: L plus a partition of
    n - L into parts in [2, L].  With w >= 1 it is mu - w, mu the number
    of parts above w, so the class adds (-1)^w [q^(n-w)]
    prod_(2<=k<=w) 1/(1-q^k) prod_(k>w) 1/(1+q^k).
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    total = [1] + [0] * n_max            # the empty partition, crank 0
    bounded = [1] + [0] * n_max          # parts in [2, largest]
    signed = [1] + [0] * n_max           # parts >= 2, those above w count -1
    for largest in range(2, n_max + 1):
        for m in range(largest, n_max + 1):
            bounded[m] += bounded[m - largest]
            signed[m] -= signed[m - largest]
        sign = (-1) ** largest
        for n in range(largest, n_max + 1):
            total[n] += sign * bounded[n - largest]
    for w in range(1, n_max + 1):        # signed starts at w = 1
        top = n_max - w                  # signed is read up to q^top
        if w >= 2:                       # times (1 + q^w), over (1 - q^w)
            for m in range(top, w - 1, -1):
                signed[m] += signed[m - w]
            for m in range(w, top + 1):
                signed[m] += signed[m - w]
        sign = (-1) ** w
        for n in range(w, n_max + 1):
            total[n] += sign * signed[n - w]
    return total


def colored_partition_oracle(n_max: int) -> list[int]:
    """Partitions of n with each odd part in one of three colors, for
    n = 0 .. n_max, by a DP over part sizes.

    An odd size used k times contributes C(k+2, 2), the ways to split k
    among three colors; one coin-change step per color takes those splits.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    ways = [1] + [0] * n_max
    for size in range(1, n_max + 1):
        for _ in range(3 if size % 2 else 1):
            for m in range(size, n_max + 1):
                ways[m] += ways[m - size]
    return ways


class OracleSpec(NamedTuple):
    """How a counting oracle is compared with its series."""

    label: str
    series: SeriesName
    default_n_max: int
    excluded: tuple[int, ...] = ()   # documented discrepancies, not compared


ORACLES = {
    "crank": OracleSpec("crank-parity", SeriesName.C_CRANK, 40, (1,)),
    "colored": OracleSpec("colored-partition", SeriesName.A_RECIP, 35),
}


def oracle_rows(which: str, n_max: int) -> tuple[list[dict], list[dict]]:
    """Combinatorial count against series coefficient for 0 <= n <= n_max.

    Returns every row and, in n order, the rows that disagree outside the
    oracle's excluded n.  An n_max above ``ORACLE_CAP`` raises before any
    work, a negative one before the series is built.
    """
    spec = ORACLES[which]
    if n_max > ORACLE_CAP:
        raise EnumerationCapExceeded(
            f"n_max = {n_max} exceeds the {spec.label} oracle cap {ORACLE_CAP}")
    # looked up per call, so that wrappers of the module functions apply
    count = crank_parity_oracle if which == "crank" else colored_partition_oracle
    counts = count(n_max)
    series = named_series(spec.series, n_max + 1)
    rows = [{"n": n, "enumeration": e, "coefficient": series.coeff(n)}
            for n, e in enumerate(counts)]
    mismatches = [row for row in rows if row["n"] not in spec.excluded
                  and row["enumeration"] != row["coefficient"]]
    return rows, mismatches


# ----------------------------------------------------------------------
# weighted progression sums

@dataclass(frozen=True)
class CongruenceFamily:
    """One vanishing claim: for every n >= 0, the weighted sum

        sum_k weight(k) * seq(stride*n + offset - scale*g(k))

    divided exactly by ``pre_divisor`` vanishes modulo ``modulus``, where
    weight(k) q^g(k) are the terms of the theta sum ``weight``.  Negative
    arguments contribute nothing; weight None degenerates to a single
    coefficient.
    """

    sequence: SeriesName
    modulus: int
    stride: int
    offset: int
    weight: Optional[ThetaKind] = None
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
        if self.weight is not None:
            out["weight"] = self.weight.value
            out["scale"] = self.scale
        if self.pre_divisor != 1:
            out["pre_divisor"] = self.pre_divisor
        return out


def weighted_sum(family: CongruenceFamily, n: int, series: Series) -> int:
    """The family's exact finite sum at progression step n, read from
    ``series`` (the family's sequence, exact past the step's index).

    Raises :class:`InexactDivision` if the pre-divisor fails, which
    falsifies the divisibility the claim silently assumes.
    """
    base = family.stride * n + family.offset
    if family.weight is None:
        total = series.coeff(base)
    else:
        # one list of terms at q -> q^scale for every step of a scan
        terms = _stretched_terms(SUMS[family.weight.value][1], family.scale, series.order)
        total = series.coeff(base) + sum(
            w * series.coeff(base - s) for s, w in terms[:bisect_left(terms, (base + 1,))])
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


def solve_24n_condition(alpha: int) -> tuple[int, int]:
    """The unique residue class of n with 24n = 1 mod 5^(2*alpha+1)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    modulus = 5 ** (2 * alpha + 1)
    return pow(24, -1, modulus), modulus


def prime_shift(p: int, a: int, b: int, residues: tuple[int, ...] = (13, 17, 19, 23),
                modulus: int = 24) -> int:
    """(a p^2 - b)/24 for a prime p in ``residues`` mod ``modulus``; any
    other p raises ValueError."""
    if (p < 2 or p % modulus not in residues
            or any(p % f == 0 for f in range(2, isqrt(p) + 1))):
        raise ValueError(f"p must be a prime in {{{', '.join(map(str, residues))}}} "
                         f"mod {modulus}")
    shift, rem = divmod(a * p * p - b, 24)
    assert rem == 0
    return shift
