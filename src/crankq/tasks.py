"""Registry of every verification task under its stable id.

This module is the one place a task id is bound to its check.  The
named claims of the paper (congruence families, column reductions,
oracle comparisons) are defined here on top of the reusable machinery of
:mod:`~crankq.congruence`; the series identities bind the checks of
:mod:`~crankq.theta`, :mod:`~crankq.kalgebra` and :mod:`~crankq.etaq`.

Each task is a zero-config callable returning a :class:`CheckReport`;
passing ``order=N`` rescales it (identity tasks compare up to N,
scanning tasks scan every step whose index stays below N).  A scanning
task takes ``n_max`` or ``order``, not both.  The registry is what the
command-line ``verify`` and ``report`` commands iterate, always in sorted
id order so output is deterministic, and :func:`run_task` is the one
place a task is run and timed.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from inspect import signature
from time import perf_counter
from typing import Callable, Optional

from . import etaq, kalgebra, theta
from .congruence import (ORACLES, CongruenceFamily, _n_max_for,
                         check_progression, cooper_hirschhorn_check,
                         oracle_rows, prime_shift, solve_24n_condition)
from .errors import CrankqError
from .etaq import SeriesName, named_series
from .report import CheckReport
from .theta import IDENTITIES, ThetaKind

__all__ = ["task_ids", "describe", "run_task", "run_all", "run_oracle"]


def _check_family(tid: str, family: CongruenceFamily, default: int,
                  n_max: Optional[int] = None,
                  order: Optional[int] = None) -> CheckReport:
    """Scan one progression family; n_max defaults to ``default``."""
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


# the (m, k) pairs that binom checks by default
_BINOM_PAIRS = ((1, 1), (2, 1), (1, 2))


def _binom_suite(order: int = 150,
                 pairs: tuple[tuple[int, int], ...] = _BINOM_PAIRS) -> CheckReport:
    for m, k in pairs:
        result = etaq.binomial_congruence_check(m, k, order)
        if not result.passed:
            return result
    params = {"pairs": [list(p) for p in pairs]}
    return CheckReport.from_failures("binom", params, order, [])


_REGISTRY: dict[str, tuple[str, Callable[..., CheckReport]]] = {
    # congruences for the named sequences
    "thm11": ("crank parity divisible by 5^(a+1) on the 24n=1 mod 5^(2a+1) class",
              _check_thm11),
    "thm12": ("exact identity for the C(5n+4) column",
              _check_thm12),
    "thm13": ("pentagonal-weighted crank sums over 50n+49, /5, vanish mod 5",
              partial(_check_family, "thm13",
                      CongruenceFamily(SeriesName.C_CRANK, 5, stride=50, offset=49,
                                       weight=ThetaKind.PENT_6K1, scale=25,
                                       pre_divisor=5), 10)),
    "thm14": ("reciprocal sequence vanishes mod 7 on 7n+2",
              partial(_check_family, "thm14",
                      CongruenceFamily(SeriesName.A_RECIP, 7, stride=7,
                                       offset=2), 100)),
    "thm15a": ("triangular sums of a over 25n+16 vanish mod 5",
               partial(_check_family, "thm15a",
                       CongruenceFamily(SeriesName.A_RECIP, 5, stride=25, offset=16,
                                        weight=ThetaKind.TRIANGULAR, scale=5), 20)),
    "thm15b": ("triangular sums of C over 125n+114, /5, vanish mod 25",
               partial(_check_family, "thm15b",
                       CongruenceFamily(SeriesName.C_CRANK, 25, stride=125, offset=114,
                                        weight=ThetaKind.TRIANGULAR, scale=5,
                                        pre_divisor=5), 7)),
    "thm16": ("alternating-square sums of a on the 5p^2 progressions, mod 5",
              partial(_check_5p2, "thm16", ThetaKind.SQUARES, (25, 1), p=13)),
    "cr1": ("pentagonal-weighted sums of a over 25n+21 vanish mod 5",
            partial(_check_family, "cr1",
                    CongruenceFamily(SeriesName.A_RECIP, 5, stride=25, offset=21,
                                     weight=ThetaKind.PENT_6K1, scale=5), 20)),
    "cr2": ("alternating cubic-weighted sums of a on 5p^2 progressions, mod 5",
            partial(_check_5p2, "cr2", ThetaKind.CUBIC_3K1, (65, 41, (7, 11), 12),
                    p=7)),
    "ch-d": ("multiplicative relation d(7n+16) = 49 d(n/7)",
             partial(cooper_hirschhorn_check, SeriesName.D_CH, p=7)),
    "ch-h": ("multiplicative relation h(pn+shift) = +-p h(n/p) and vanishing",
             partial(cooper_hirschhorn_check, SeriesName.H_CH, p=13)),
    "smoke5": ("partition numbers vanish mod 5 on 5n+4",
               partial(_check_family, "smoke5",
                       CongruenceFamily(SeriesName.P_PARTITION, 5, stride=5,
                                        offset=4), 100)),
    "smoke7": ("partition numbers vanish mod 7 on 7n+5",
               partial(_check_family, "smoke7",
                       CongruenceFamily(SeriesName.P_PARTITION, 7, stride=7,
                                        offset=5), 100)),
    "smoke11": ("partition numbers vanish mod 11 on 11n+6",
                partial(_check_family, "smoke11",
                        CongruenceFamily(SeriesName.P_PARTITION, 11, stride=11,
                                         offset=6), 100)),
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
              partial(theta.verify_5dissections, order=150, which="31")),
    "dis32": ("quintic dissection of the reciprocal Euler product",
              partial(theta.verify_5dissections, order=150, which="32")),
    "k33": ("K + 1 equals its eta quotient",
            partial(theta.verify_K_identities, order=150, which="33")),
    "k34": ("K - 4 equals its eta quotient",
            partial(theta.verify_K_identities, order=150, which="34")),
    "theta-triangular": ("triangular sum equals f_2^2/f_1",
                         partial(theta.verify_theta_identity, order=200,
                                 kind=ThetaKind.TRIANGULAR)),
    "theta-squares": ("alternating square sum equals f_1^2/f_2",
                      partial(theta.verify_theta_identity, order=200,
                              kind=ThetaKind.SQUARES)),
    "theta-pent": ("(6k+1)-weighted pentagonal sum equals f_1^5/f_2^2",
                   partial(theta.verify_theta_identity, order=200,
                           kind=ThetaKind.PENT_6K1)),
    "theta-cubic": ("(3k+1)-weighted cubic sum equals f_2^5/f_1^2",
                    partial(theta.verify_theta_identity, order=200,
                            kind=ThetaKind.CUBIC_3K1)),
    "binom": ("f_m^(5^k) = f_(5m)^(5^(k-1)) mod 5^k for "
              + ", ".join(f"({m},{k})" for m, k in _BINOM_PAIRS), _binom_suite),
    # the P(m,n) system
    "rec35": ("n-step recurrence closes symbolically on the grid",
              partial(kalgebra.verify_recurrences, which="35")),
    "rec36": ("m-step recurrence closes symbolically on the grid",
              partial(kalgebra.verify_recurrences, which="36")),
    "pmn-eval": ("symbolic P(m,n) matches direct R-series evaluation",
                 kalgebra.verify_series_agreement),
    "combo456": ("five-term P-combination identity plus micro-identities",
                 kalgebra.verify_combo_identity),
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
    The task's signature is read only when ``order`` or a keyword is
    given; a call with neither (as in :func:`run_all`) runs the task at
    its defaults without introspecting it.
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
    report = runner(**kw)
    return replace(report, elapsed_ms=int((perf_counter() - started) * 1000))


def run_all(order: Optional[int] = None) -> list[CheckReport]:
    """Run every task in sorted id order."""
    return [run_task(tid, order=order) for tid in task_ids()]
