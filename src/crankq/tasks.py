"""Registry of every verification task under its stable id.

This module is the one place a task id is bound to its check, and a
check that serves several ids is bound to each by position, so no id
can be made to run another's.  The named claims of the paper are
defined here on top of :mod:`~crankq.congruence`, and so are the series
identities: each eta-quotient identity a task checks is an
:class:`Identity` row of :data:`IDENTITIES`, and each claim whose whole
check is one progression scan is a :class:`CongruenceFamily` row of
:data:`FAMILIES`.  The progressions derived from a task's parameters
(``thm11``'s classes, the 5p^2 rows of ``thm16`` and ``cr2``) and the
vanishing halves of two-part checks (``a54``, ``f52``) stay computed in
their checks.  The checks the planner relies on (``theta-*``, ``k33``,
``k34``) build their reference side by the plain route, |e| passes of
f_m, never by a plan that could use the identity being checked.  Every
check has its one body in this module.

Each task is a zero-config callable returning a :class:`CheckReport`;
passing ``order=N`` rescales it (identity tasks compare up to N,
scanning tasks scan every step whose index stays below N).  A scanning
task takes ``n_max`` or ``order``, not both.  The registry is what the
command-line ``verify`` and ``report`` commands iterate through one
loop, ``report`` in sorted id order so output is deterministic, and
:func:`run_task` is the one place a task is run and timed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from inspect import signature
from time import perf_counter
from typing import Callable, Iterator, Optional

from .congruence import (ORACLES, CongruenceFamily, check_progression, oracle_rows,
                         prime_shift, solve_24n_condition)
from .errors import CrankqError, InexactDivision
from .etaq import (SUMS, EtaQuotientSpec, SeriesName, ThetaKind, apply_factors,
                   eta_factors, eta_quotient, eta_series, factor_product, named_series,
                   plan_quotient, power_sums, rr_factors, theta_sum)
from .kalgebra import (K, KPolynomial, _check_grid, combo_sides, eval_at_K_many, pmn,
                       pmn_series_grid)
from .report import CheckReport, first_mismatch
from .series import Series

__all__ = ["Identity", "IDENTITIES", "FAMILIES", "PMN_GRID", "task_ids", "describe",
           "run_task", "run_oracle"]


def _plain(spec: EtaQuotientSpec, order: int) -> Series:
    """The eta quotient by the plain route, which uses no identity."""
    return factor_product(eta_factors(spec), order, spec.shift)


def _power(base: str, e: int) -> str:
    return base if e == 1 else f"{base}^{e}"


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

    def _one_term(self) -> tuple[int, tuple[tuple[int, int], ...], str]:
        (c, spec), = self.terms
        return c, spec.factors, f"{self.series.value}({self.m}n+{self.r})"

    def statement(self) -> str:
        """A one-term row as an equation: ``C(5n+4) = 5*f1^2*f5*f10^2/f2^4``."""
        c, factors, column = self._one_term()
        up = "*".join(_power(f"f{m}", e) for m, e in factors if e > 0)
        down = "*".join(_power(f"f{m}", -e) for m, e in factors if e < 0)
        return f"{column} = {c}*{up}" + (f"/{down}" if down else "")

    def reduction(self) -> str:
        """A one-term row as a reduction: ``a(5n+1) column is 3 f_1 f_2^2 mod 5``."""
        c, factors, column = self._one_term()
        body = " ".join(_power(f"f_{m}", e) for m, e in factors)
        return f"{column} column is {f'{c} ' if c != 1 else ''}{body} mod {self.modulus}"


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

# task id -> (description, the progression family the task scans, default n_max)
FAMILIES: dict[str, tuple[str, CongruenceFamily, int]] = {
    "thm13": ("pentagonal-weighted crank sums over 50n+49, /5, vanish mod 5",
              CongruenceFamily(SeriesName.C_CRANK, 5, stride=50, offset=49,
                               weight=ThetaKind.PENT_6K1, scale=25, pre_divisor=5), 10),
    "thm14": ("reciprocal sequence vanishes mod 7 on 7n+2",
              CongruenceFamily(SeriesName.A_RECIP, 7, stride=7, offset=2), 100),
    "thm15a": ("triangular sums of a over 25n+16 vanish mod 5",
               CongruenceFamily(SeriesName.A_RECIP, 5, stride=25, offset=16,
                                weight=ThetaKind.TRIANGULAR, scale=5), 20),
    "thm15b": ("triangular sums of C over 125n+114, /5, vanish mod 25",
               CongruenceFamily(SeriesName.C_CRANK, 25, stride=125, offset=114,
                                weight=ThetaKind.TRIANGULAR, scale=5, pre_divisor=5), 7),
    "cr1": ("pentagonal-weighted sums of a over 25n+21 vanish mod 5",
            CongruenceFamily(SeriesName.A_RECIP, 5, stride=25, offset=21,
                             weight=ThetaKind.PENT_6K1, scale=5), 20),
    "smoke5": ("partition numbers vanish mod 5 on 5n+4",
               CongruenceFamily(SeriesName.P_PARTITION, 5, stride=5, offset=4), 100),
    "smoke7": ("partition numbers vanish mod 7 on 7n+5",
               CongruenceFamily(SeriesName.P_PARTITION, 7, stride=7, offset=5), 100),
    "smoke11": ("partition numbers vanish mod 11 on 11n+6",
                CongruenceFamily(SeriesName.P_PARTITION, 11, stride=11, offset=6), 100),
}


def _n_max_for(n_max: Optional[int], order: Optional[int], stride: int,
               offset: int, default: int) -> int:
    """Scan length of a progression stride*n + offset: ``n_max`` when
    given, else the most steps whose index stays below ``order`` (at least
    one step), else ``default``.  Both bound the same scan, so giving both
    raises :class:`CrankqError` rather than silently dropping one, as does
    a negative ``n_max``."""
    if n_max is not None and order is not None:
        raise CrankqError("n_max and order both bound the scan; give one")
    if n_max is not None:
        if n_max < 0:
            raise CrankqError(f"n_max must be >= 0, got {n_max}")
        return n_max
    if order is None:
        return default
    return max((order - 1 - offset) // stride, 0)


def _check_family(tid: str, n_max: Optional[int] = None,
                  order: Optional[int] = None) -> CheckReport:
    """Scan the progression family of ``tid``'s :data:`FAMILIES` row;
    n_max defaults to the row's."""
    _, family, default = FAMILIES[tid]
    steps = _n_max_for(n_max, order, family.stride, family.offset, default)
    return check_progression(family, steps, task=tid)


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
    """Exact identity: the C(5n+4) column equals its eta quotient."""
    params = {"identity": IDENTITIES["thm12"].statement()}
    return CheckReport.from_failures("thm12", params, order,
                                     [IDENTITIES["thm12"].mismatch(order)])


def _check_5p2(task: str, weight: ThetaKind, form: tuple, p: int,
               n_max: Optional[int] = None,
               order: Optional[int] = None) -> CheckReport:
    """Weighted sums of the reciprocal sequence vanish mod 5 on
    5p^2 n + 5pr + shift for r = 1 .. p-1, where the admissible p and
    shift = (a p^2 - b)/24 are :func:`prime_shift` of ``form``, (a, b) or
    (a, b, residues, modulus).  The first r that fails is named in the
    witness.  n_max defaults to 1."""
    shift = prime_shift(p, *form)
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


def _check_ch_d(n_max: Optional[int] = None, order: Optional[int] = None) -> CheckReport:
    """The multiplicative relation d(7n + 16) = 49 d(n/7) of the quartic
    product f_1^4 f_2^2, where d(n/7) is 0 unless 7 divides n; 7 is the
    one admissible p.  n_max defaults to 100, or to the most n with
    7n + 16 below ``order``."""
    n_max = _n_max_for(n_max, order, 7, 16, 100)
    order = 7 * n_max + 17
    series = named_series(SeriesName.D_CH, order)
    pairs = ((n, series.coeff(7 * n + 16), 49 * series.coeff(n // 7) if n % 7 == 0 else 0)
             for n in range(n_max + 1))
    failures = ({"n": n, "lhs": lhs, "rhs": rhs} for n, lhs, rhs in pairs if lhs != rhs)
    return CheckReport.from_failures("ch-d", {"sequence": "d", "p": 7, "n_max": n_max},
                                     order, failures)


def _check_ch_h(p: int = 13, n_max: Optional[int] = None, corollary_n_max: int = 5,
                order: Optional[int] = None) -> CheckReport:
    """The multiplicative relation h(pn + shift) = +-p h(n/p) of the cubic
    product f_1^3 f_2, shift = 5(p^2-1)/24, for a prime p in {13, 17, 19,
    23} mod 24; h(n/p) is 0 unless p divides n.  The sign, one per prime,
    is read at the first nonzero right side and then enforced; the
    ``sign`` param is None until it is read.  Then the
    corollary h(p^2 n + p r + shift) = 0 for r = 1 .. p-1, n <=
    corollary_n_max.  n_max defaults to 100, or to the most n with
    pn + shift below ``order``.  A negative corollary_n_max would scan no
    corollary, so it raises :class:`CrankqError`, as a negative n_max does."""
    if corollary_n_max < 0:
        raise CrankqError(f"corollary_n_max must be >= 0, got {corollary_n_max}")
    shift = prime_shift(p, 5, 5)
    n_max = _n_max_for(n_max, order, p, shift, 100)
    order = max(p * n_max, p * p * corollary_n_max + p * (p - 1)) + shift + 1
    series = named_series(SeriesName.H_CH, order)
    params = {"sequence": "h", "p": p, "n_max": n_max,
              "corollary_n_max": corollary_n_max, "shift": shift, "sign": None}

    def failures() -> Iterator[dict]:      # from_failures draws up to the first
        sign = 0
        for n in range(n_max + 1):
            lhs = series.coeff(p * n + shift)
            rhs = p * series.coeff(n // p) if n % p == 0 else 0
            if sign == 0 and rhs != 0:
                sign = 1 if lhs == rhs else -1 if lhs == -rhs else 0
                params["sign"] = sign or None
                if sign == 0:
                    yield {"n": n, "lhs": lhs, "rhs_times_p": rhs,
                           "reason": "no consistent sign"}
            elif lhs != sign * rhs:
                yield {"n": n, "lhs": lhs, "rhs_times_p": sign * rhs, "sign": sign}
        for n in range(corollary_n_max + 1):
            for r in range(1, p):
                index = p * p * n + p * r + shift
                if value := series.coeff(index):
                    yield {"n": n, "r": r, "index": index, "value": value,
                           "reason": "corollary vanishing"}

    return CheckReport.from_failures("ch-h", params, order, failures())


def _check_a54(order: int = 150, n_max: int = 100) -> CheckReport:
    """The A(5n+4) column mod 5, and the vanishing of A(10n+9) mod 5."""
    family = CongruenceFamily(SeriesName.A_CAP, 5, stride=10, offset=9)
    odd_half = check_progression(family, n_max, task="a54")
    return CheckReport.from_failures("a54", {"order": order, "n_max": n_max}, order,
                                     [IDENTITIES["a54"].mismatch(order), odd_half.witness])


def _check_a51(order: int = 150) -> CheckReport:
    """The a(5n+1) column reduces mod 5 to its eta quotient."""
    return CheckReport.from_failures("a51", {"order": order}, order,
                                     [IDENTITIES["a51"].mismatch(order)])


def _check_f52(order: int = 100, n_max: int = 10,
               which: str = "both") -> CheckReport:
    """The f(5n+2) column against its quoted three-term reduction mod 25,
    plus the vanishing f(25n+22) = 0 mod 25.

    The quoted middle term is -5q f_10^2/(f_2 f_5^2); the identity as
    quoted is false from exponent 11 on (the surrounding exact algebra
    forces f_10^5 there), so the "identity" part of this task fails with
    a witness by construction.  See :func:`_check_f52_corrected` for the
    repaired form, which does hold.  The vanishing part is unaffected.
    ``which`` runs "both" parts, the "identity" or the "vanishing"; the
    row's order check applies to each.
    """
    if which not in ("both", "identity", "vanishing"):
        raise ValueError(f"unknown f52 selector {which!r}")
    diff = IDENTITIES["f52"].mismatch(order)
    params = {"order": order, "n_max": n_max, "which": which}
    failures = []
    if which != "vanishing":
        failures.append(diff and {"check": "identity", **diff})
    if which != "identity":
        family = CongruenceFamily(SeriesName.F_CONV, 25, stride=25, offset=22)
        witness = check_progression(family, n_max, task="f52").witness
        failures.append(witness and dict(witness, check="vanishing"))
    return CheckReport.from_failures("f52", params, order, failures)


def _check_f52_corrected(order: int = 100) -> CheckReport:
    """Repaired forms of the f(5n+2) reduction, exact and mod 25; both hold."""
    failures = ({"check": check, **diff} for check in ("exact", "mod25")
                if (diff := IDENTITIES[f"f52-{check}"].mismatch(order)))
    return CheckReport.from_failures("f52-corrected", {"order": order}, order,
                                     failures)


def run_oracle(which: str, n_max: Optional[int] = None, order: Optional[int] = None
               ) -> tuple[list[dict], list[dict], CheckReport]:
    """Counting oracle against its series: every row, the mismatching rows
    and the report.  The crank oracle excludes and reports the documented
    n = 1 discrepancy (count -1 vs coefficient -3)."""
    spec = ORACLES[which]
    n_max = _n_max_for(n_max, order, 1, 0, spec.default_n_max)
    rows, mismatches = oracle_rows(which, n_max)
    params = {"n_max": n_max}
    if which == "crank":
        params.update(excluded=list(spec.excluded),
                      n1_discrepancy=rows[1] if n_max >= 1 else None)
    return rows, mismatches, CheckReport.from_failures(f"oracle-{which}", params,
                                                       n_max + 1, mismatches)


def _check_oracle(which: str, n_max: Optional[int] = None,
                  order: Optional[int] = None) -> CheckReport:
    return run_oracle(which, n_max, order)[2]


def _check_k(which: str, order: int = 150) -> CheckReport:
    """K + 1 ("33") or K - 4 ("34") against its eta quotient."""
    if order < 10:
        raise ValueError("order must be >= 10")
    diff = IDENTITIES[f"k{which}"].mismatch(order)
    return CheckReport.from_failures(f"k{which}", {"which": which}, order,
                                     [diff and {"identity": which, **diff}])


def _check_theta(kind: ThetaKind, order: int = 200) -> CheckReport:
    """The closed-form sum against its eta quotient f_1^a f_2^b."""
    a, b = SUMS[kind.value][0]
    quotient = _plain(EtaQuotientSpec.make({1: a, 2: b}), order)
    diff = first_mismatch(theta_sum(kind, order), quotient, keys=("sum", "quotient"))
    return CheckReport.from_failures(f"theta-{kind.value}", {"kind": kind.value},
                                     order, [diff])


# which -> (e, quotient, bracket): f_1^e is the quotient times the bracket,
# a sum of c * q^s * R(q^5)^p over its (s, c, p) terms
_DISSECTIONS = {
    "31": (1, {25: 1}, [(0, 1, -1), (1, -1, 0), (2, -1, 1)]),
    "32": (-1, {25: 5, 5: -6}, [(0, 1, -4), (1, 1, -3), (2, 2, -2), (3, 3, -1), (4, 5, 0),
                                (5, -3, 1), (6, 2, 2), (7, -1, 3), (8, 1, 4)]),
}


def _dissection_sides(which: str, order: int) -> tuple[Series, Series]:
    """Left and right side of the quintic dissection of f_1 ("31") or of
    1/f_1 ("32"): the right side is the bracket from :func:`power_sums`,
    multiplied in place by the quotient's planned passes."""
    e, quotient, bracket = _DISSECTIONS[which]
    right = next(power_sums([bracket], rr_factors(5), order))
    coeffs = list(right.coeffs)
    apply_factors(coeffs, plan_quotient(EtaQuotientSpec.make(quotient)))
    return eta_series({1: e}, order), Series(right.valuation, coeffs, order)


def _check_dissection(which: str, order: int = 150) -> CheckReport:
    """The quintic dissection as an exact series equality."""
    if order < 25:
        raise ValueError("order must be >= 25 so f_25 contributes")
    diff = first_mismatch(*_dissection_sides(which, order))
    return CheckReport.from_failures(f"dis{which}", {"which": which}, order,
                                     [diff and {"identity": which, **diff}])


# the (m, k) pairs that binom checks by default
_BINOM_PAIRS = ((1, 1), (2, 1), (1, 2))


def _binom_suite(order: int = 150,
                 pairs: tuple[tuple[int, int], ...] = _BINOM_PAIRS) -> CheckReport:
    """f_m^(5^k) = f_5m^(5^(k-1)) mod 5^k coefficient-wise for each (m, k)
    of ``pairs``; the first pair that fails is the report."""
    for m, k in pairs:
        if m < 1 or k < 1:
            raise ValueError("m and k must be positive")
        modulus = 5 ** k
        diff = first_mismatch(eta_series({m: modulus}, order),
                              eta_series({5 * m: modulus // 5}, order), modulus=modulus)
        if diff:
            return CheckReport.from_failures("binom", {"m": m, "k": k, "modulus": modulus},
                                             order, [diff])
    params = {"pairs": [list(p) for p in pairs]}
    return CheckReport.from_failures("binom", params, order, [])


# The grid m in [0, m_max], n in [n_min, n_max] on which rec35, rec36 and
# pmn-eval check P(m, n) by default.
PMN_GRID = {"m_max": 4, "n_min": -3, "n_max": 3}


def _n_step(m: int, n: int) -> bool:
    return pmn(m, n + 1) == KPolynomial({-1: 4}) * pmn(m, n) + pmn(m, n - 1)


def _m_step(m: int, n: int) -> bool:
    return pmn(m + 2, n) == K * pmn(m + 1, n) + pmn(m, n)


def _check_recurrence(task: str, step: str, holds: Callable[[int, int], bool],
                      m_max: int = PMN_GRID["m_max"], n_min: int = PMN_GRID["n_min"],
                      n_max: int = PMN_GRID["n_max"]) -> CheckReport:
    """Exact symbolic closure of one P(m,n) recurrence: ``holds`` at every
    point (m, n) of a grid, m-major; ``step`` names it in the witness."""
    params = _check_grid(0, m_max, n_min, n_max)
    failures = ({"recurrence": step, "m": m, "n": n}
                for m in range(m_max + 1) for n in range(n_min, n_max + 1)
                if not holds(m, n))
    return CheckReport.from_failures(task, params, 0, failures)


def _check_pmn_eval(order: int = 100, m_max: int = PMN_GRID["m_max"],
                    n_min: int = PMN_GRID["n_min"],
                    n_max: int = PMN_GRID["n_max"]) -> CheckReport:
    """Each symbolic P(m,n), K replaced by its q-series, against the direct
    R-series evaluation on a grid.  Both sides stream in m-major order, so
    the witness is the first failing point in that order."""
    params = _check_grid(0, m_max, n_min, n_max)
    if order <= m_max:
        raise CrankqError(f"order must exceed m_max = {m_max}, got {order}")
    symbolic = eval_at_K_many((pmn(m, n) for m in range(m_max + 1)
                               for n in range(n_min, n_max + 1)), order)
    direct = pmn_series_grid(0, m_max, n_min, n_max, order)
    failures = ({"m": m, "n": n, **diff}
                for s, ((m, n), d) in zip(symbolic, direct)
                if (diff := first_mismatch(s, d, keys=("symbolic", "direct"))))
    return CheckReport.from_failures("pmn-eval", params, order, failures)


def _check_combo456(order: int = 100) -> CheckReport:
    """The five-term P-combination identity and the two micro-identities
    used alongside it, 1 + P(0,-1) = (K-4)/K and 1 - 2P(0,-1) - 2P(1,0) =
    1 + 8K^-1 - 2K, as Laurent polynomials in K cleared of denominators.
    They are not also compared as q-series: ``pmn-eval`` checks each
    P(m, n) they read against the direct R-series.  ``order`` is only
    reported."""
    checks = {"symbolic": combo_sides(),
              "micro1": (1 + pmn(0, -1), (K - 4) * KPolynomial.monomial(1, -1)),
              "micro2": (1 - 2 * pmn(0, -1) - 2 * pmn(1, 0),
                         KPolynomial({-1: 8, 0: 1, 1: -2}))}
    failures = ({"check": check, "lhs": str(lhs), "rhs": str(rhs)}
                for check, (lhs, rhs) in checks.items() if lhs != rhs)
    return CheckReport.from_failures("combo456", {}, order, failures)


_REGISTRY: dict[str, tuple[str, Callable[..., CheckReport]]] = {
    # congruences for the named sequences
    **{tid: (text, partial(_check_family, tid)) for tid, (text, _, _) in FAMILIES.items()},
    "thm11": ("crank parity divisible by 5^(a+1) on the 24n=1 mod 5^(2a+1) class",
              _check_thm11),
    "thm12": ("exact identity for the C(5n+4) column",
              _check_thm12),
    "thm16": ("alternating-square sums of a on the 5p^2 progressions, mod 5",
              partial(_check_5p2, "thm16", ThetaKind.SQUARES, (25, 1), p=13)),
    "cr2": ("alternating cubic-weighted sums of a on 5p^2 progressions, mod 5",
            partial(_check_5p2, "cr2", ThetaKind.CUBIC_3K1, (65, 41, (7, 11), 12),
                    p=7)),
    "ch-d": ("multiplicative relation d(7n+16) = 49 d(n/7)",
             _check_ch_d),
    "ch-h": ("multiplicative relation h(pn+shift) = +-p h(n/p) and vanishing",
             _check_ch_h),
    # intermediate reduced generating functions
    "a54": (IDENTITIES["a54"].reduction() + "; A(10n+9) vanishes mod 5",
            _check_a54),
    "a51": (IDENTITIES["a51"].reduction(),
            _check_a51),
    "f52": ("f(5n+2) column vs quoted three-term reduction mod 25 (misprinted "
            "middle term; fails with witness) and f(25n+22) = 0 mod 25",
            _check_f52),
    "f52-corrected": ("f(5n+2) column vs repaired reduction, exactly and mod 25",
                      _check_f52_corrected),
    # combinatorial oracles
    "oracle-crank": ("crank parity count matches the series (n=1 excluded)",
                     partial(_check_oracle, "crank")),
    "oracle-colored": ("3-colored odd-part count matches the series",
                       partial(_check_oracle, "colored")),
    # series identities
    "dis31": ("quintic dissection of the Euler product",
              partial(_check_dissection, "31")),
    "dis32": ("quintic dissection of the reciprocal Euler product",
              partial(_check_dissection, "32")),
    "k33": ("K + 1 equals its eta quotient", partial(_check_k, "33")),
    "k34": ("K - 4 equals its eta quotient", partial(_check_k, "34")),
    "theta-triangular": ("triangular sum equals f_2^2/f_1",
                         partial(_check_theta, ThetaKind.TRIANGULAR)),
    "theta-squares": ("alternating square sum equals f_1^2/f_2",
                      partial(_check_theta, ThetaKind.SQUARES)),
    "theta-pent": ("(6k+1)-weighted pentagonal sum equals f_1^5/f_2^2",
                   partial(_check_theta, ThetaKind.PENT_6K1)),
    "theta-cubic": ("(3k+1)-weighted cubic sum equals f_2^5/f_1^2",
                    partial(_check_theta, ThetaKind.CUBIC_3K1)),
    "binom": ("f_m^(5^k) = f_(5m)^(5^(k-1)) mod 5^k for "
              + ", ".join(f"({m},{k})" for m, k in _BINOM_PAIRS), _binom_suite),
    # the P(m,n) system
    "rec35": ("n-step recurrence closes symbolically on the grid",
              partial(_check_recurrence, "rec35", "n-step", _n_step)),
    "rec36": ("m-step recurrence closes symbolically on the grid",
              partial(_check_recurrence, "rec36", "m-step", _m_step)),
    "pmn-eval": ("symbolic P(m,n) matches direct R-series evaluation",
                 _check_pmn_eval),
    "combo456": ("five-term P-combination identity plus micro-identities",
                 _check_combo456),
}


def task_ids() -> list[str]:
    return sorted(_REGISTRY)


def describe(tid: str) -> str:
    return _REGISTRY[tid][0]


def run_task(tid: str, order: Optional[int] = None, **kw) -> CheckReport:
    """Run one registry task and time it into the report's ``elapsed_ms``.

    Every task accepts ``order``; the symbolic recurrence tasks have none
    and ignore it.  Unknown ids raise ValueError; parameters the task does
    not take, and an ``order`` below 1, raise :class:`CrankqError`.
    An :class:`InexactDivision` from the check falsifies the claim, so it
    becomes the task's failed report, witness ``{"error": <message>}``.
    The task's signature is read only when ``order`` or a keyword is
    given; a call with neither (as ``crankq report`` makes) runs the task
    at its defaults without introspecting it.
    """
    entry = _REGISTRY.get(tid)
    if entry is None:
        raise ValueError(f"unknown task id {tid!r}; known ids: {', '.join(task_ids())}")
    runner = entry[1]
    if order is not None or kw:
        accepted = signature(runner).parameters
        unsupported = sorted(set(kw) - set(accepted))
        if unsupported:
            raise CrankqError("unsupported parameter " + ", ".join(map(repr, unsupported)))
        if order is not None and order < 1:
            raise CrankqError(f"order must be >= 1, got {order}")
        if order is not None and "order" in accepted:
            kw["order"] = order
    started = perf_counter()
    try:
        report = runner(**kw)
    except InexactDivision as exc:
        report = CheckReport(tid, {}, order or 0, "fail", {"error": str(exc)})
    return replace(report, elapsed_ms=int((perf_counter() - started) * 1000))
