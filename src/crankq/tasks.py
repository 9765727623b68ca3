"""Registry of every verification task under its stable id.

Each task is a zero-config callable returning a :class:`CheckReport`;
passing ``order=N`` rescales it (identity tasks compare up to N,
scanning tasks scan every step whose index stays below N).  The
registry is what the command-line ``verify`` and ``report`` commands
iterate, always in sorted id order so output is deterministic, and
:func:`run_task` is the one place a task is run and timed.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from inspect import signature
from time import perf_counter
from typing import Callable, Optional

from . import congruence, etaq, kalgebra, theta
from .errors import CrankqError
from .report import CheckReport

__all__ = ["task_ids", "describe", "run_task", "run_all", "WARM_ORDERS"]

# Suite-wide maxima of the big shared series.  Building them once up
# front keeps per-task timings honest and avoids recomputing a series at
# a larger order halfway through a run.
WARM_ORDERS = {"C": 2520, "a": 1802, "p": 1107}


def _binom_suite(order: int = 150,
                 pairs: tuple[tuple[int, int], ...] = ((1, 1), (2, 1), (1, 2))
                 ) -> CheckReport:
    for m, k in pairs:
        result = etaq.binomial_congruence_check(m, k, order)
        if not result.passed:
            return result
    params = {"pairs": [list(p) for p in pairs]}
    return CheckReport.from_failures("binom", params, order, [])


_theorem = congruence._THEOREMS.__getitem__

_REGISTRY: dict[str, tuple[str, Callable[..., CheckReport]]] = {
    # congruences for the named sequences
    "thm11": ("crank parity divisible by 5^(a+1) on the 24n=1 mod 5^(2a+1) class",
              _theorem("thm11")),
    "thm12": ("exact identity for the C(5n+4) column",
              _theorem("thm12")),
    "thm13": ("pentagonal-weighted crank sums over 50n+49, /5, vanish mod 5",
              _theorem("thm13")),
    "thm14": ("reciprocal sequence vanishes mod 7 on 7n+2",
              _theorem("thm14")),
    "thm15a": ("triangular sums of a over 25n+16 vanish mod 5",
               _theorem("thm15a")),
    "thm15b": ("triangular sums of C over 125n+114, /5, vanish mod 25",
               _theorem("thm15b")),
    "thm16": ("alternating-square sums of a on the 5p^2 progressions, mod 5",
              _theorem("thm16")),
    "cr1": ("pentagonal-weighted sums of a over 25n+21 vanish mod 5",
            _theorem("cr1")),
    "cr2": ("alternating cubic-weighted sums of a on 5p^2 progressions, mod 5",
            _theorem("cr2")),
    "ch-d": ("multiplicative relation d(7n+16) = 49 d(n/7)",
             _theorem("ch-d")),
    "ch-h": ("multiplicative relation h(pn+shift) = +-p h(n/p) and vanishing",
             _theorem("ch-h")),
    "smoke5": ("partition numbers vanish mod 5 on 5n+4",
               _theorem("smoke5")),
    "smoke7": ("partition numbers vanish mod 7 on 7n+5",
               _theorem("smoke7")),
    "smoke11": ("partition numbers vanish mod 11 on 11n+6",
                _theorem("smoke11")),
    # intermediate reduced generating functions
    "a54": ("A(5n+4) column is f_2^2 f_10^2 mod 5; A(10n+9) vanishes mod 5",
            _theorem("a54")),
    "a51": ("a(5n+1) column is 3 f_1 f_2^2 mod 5",
            _theorem("a51")),
    "f52": ("f(5n+2) column vs quoted three-term reduction mod 25 (misprinted "
            "middle term; fails with witness) and f(25n+22) = 0 mod 25",
            _theorem("f52")),
    "f52-corrected": ("f(5n+2) column vs repaired reduction, exactly and mod 25",
                      _theorem("f52-corrected")),
    # combinatorial oracles
    "oracle-crank": ("crank parity enumeration matches the series (n=1 excluded)",
                     _theorem("oracle-crank")),
    "oracle-colored": ("3-colored odd-part enumeration matches the series",
                       _theorem("oracle-colored")),
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
                                 kind=theta.ThetaKind.TRIANGULAR)),
    "theta-squares": ("alternating square sum equals f_1^2/f_2",
                      partial(theta.verify_theta_identity, order=200,
                              kind=theta.ThetaKind.SQUARES)),
    "theta-pent": ("(6k+1)-weighted pentagonal sum equals f_1^5/f_2^2",
                   partial(theta.verify_theta_identity, order=200,
                           kind=theta.ThetaKind.PENT_6K1)),
    "theta-cubic": ("(3k+1)-weighted cubic sum equals f_2^5/f_1^2",
                    partial(theta.verify_theta_identity, order=200,
                            kind=theta.ThetaKind.CUBIC_3K1)),
    "binom": ("f_m^(5^k) = f_(5m)^(5^(k-1)) mod 5^k for (1,1), (2,1), (1,2)",
              _binom_suite),
    # the P(m,n) system
    "rec35": ("n-step recurrence closes symbolically on the grid",
              partial(kalgebra.verify_recurrences, which="35")),
    "rec36": ("m-step recurrence closes symbolically on the grid",
              partial(kalgebra.verify_recurrences, which="36")),
    "pmn-eval": ("symbolic P(m,n) matches direct R-series evaluation",
                 partial(kalgebra.verify_series_agreement,
                         m_max=4, n_min=-3, n_max=3)),
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
    and ignore it.  Unknown ids raise ValueError, parameters the task does
    not take raise :class:`CrankqError`.
    """
    entry = _REGISTRY.get(tid)
    if entry is None:
        raise ValueError(f"unknown task id {tid!r}; known ids: {', '.join(task_ids())}")
    runner = entry[1]
    accepted = signature(runner).parameters
    unsupported = sorted(set(kw) - set(accepted))
    if unsupported:
        raise CrankqError("unsupported parameter " + ", ".join(map(repr, unsupported)))
    if order is not None and "order" in accepted:
        kw["order"] = order
    started = perf_counter()
    report = runner(**kw)
    return replace(report, elapsed_ms=int((perf_counter() - started) * 1000))


def run_all(order: Optional[int] = None) -> list[CheckReport]:
    """Run every task in sorted id order."""
    if order is None:
        for name, n in WARM_ORDERS.items():
            etaq.named_series(name, n)
    return [run_task(tid, order=order) for tid in task_ids()]
