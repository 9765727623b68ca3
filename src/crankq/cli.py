"""Command-line surface: expand, dissect, verify, oracle, pmn, report.

Exit status is 0 when everything asked for passed, 1 when any check
failed (witnesses are printed), and 2 for usage or parse errors; a
``verify`` run finishes every task before exiting 2.  When stdout is
closed before the output is all written (``crankq report | head -1``),
the run stops quietly with status 141 (128 + SIGPIPE, what a shell
reports for a command that a closed pipe stops), which reads as neither
a verdict nor a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import tasks
from .congruence import ORACLES
from .errors import CrankqError
from .etaq import (SeriesName, eta_quotient, named_series, parse_quotient,
                   resolve_name)
from .kalgebra import pmn
from .series import Series

DEFAULT_ORDER = 300
_USAGE_ERRORS = (CrankqError, ValueError, TypeError)
EXIT_CLOSED_PIPE = 141


def _series_from_args(args) -> Series:
    if args.series is not None:
        return named_series(resolve_name(args.series), args.order)
    return eta_quotient(parse_quotient(args.quotient), args.order)


def _emit_coeffs(series: Series, args, source: str) -> None:
    start = min(0, series.valuation)
    coeffs = [series._at(n) for n in range(start, series.order)]
    if args.format == "json":
        payload = {"source": source, "order": series.order,
                   "start_exponent": start, "coeffs": coeffs}
        print(json.dumps(payload, sort_keys=False))
    else:
        if start != 0:
            print(f"start_exponent: {start}")
        print(", ".join(str(c) for c in coeffs))


def _cmd_expand(args) -> int:
    series = _series_from_args(args)
    _emit_coeffs(series, args, args.series or args.quotient)
    return 0


def _cmd_dissect(args) -> int:
    series = _series_from_args(args).extract(args.m, args.r)
    source = f"{args.series or args.quotient}[{args.m}n+{args.r}]"
    _emit_coeffs(series, args, source)
    return 0


def _print_report(report, args, include_timing: bool = True) -> None:
    if args.format == "json":
        print(report.to_json(include_timing=include_timing))
    else:
        print(report.text_line())


def _cmd_verify(args) -> int:
    if args.all:
        ids = tasks.task_ids()
    elif args.theorem:
        ids = args.theorem
    else:
        raise CrankqError("verify needs --theorem <id> (repeatable) or --all")
    extra = {name: value for name in ("alpha", "p", "n_max")
             if (value := getattr(args, name)) is not None}
    failed = usage_errors = 0
    for tid in ids:
        try:
            report = tasks.run_task(tid, order=args.order, **extra)
        except _USAGE_ERRORS as exc:
            print(f"error: {tid}: {exc}", file=sys.stderr)
            usage_errors += 1
            continue
        _print_report(report, args)
        failed += not report.passed
    return 2 if usage_errors else 1 if failed else 0


def _cmd_oracle(args) -> int:
    spec = ORACLES[args.which]
    rows, mismatches, report = tasks.run_oracle(args.which, args.n_max)
    n_max, skip = report.params["n_max"], list(spec.excluded)
    if args.format == "json":
        payload = {"oracle": spec.label, "n_max": n_max, "excluded": skip, "rows": rows,
                   "outcome": report.outcome}
        print(json.dumps(payload, sort_keys=False))
    else:
        for row in rows:
            n, e, c = row.values()
            note = ("  (excluded: known discrepancy)" if n in skip
                    else "  MISMATCH" if row in mismatches else "")
            print(f"n={n:3d}  enumeration={e:12d}  coefficient={c:12d}{note}")
        print(("PASS " if report.passed else "FAIL ") + spec.label +
              f" (n <= {n_max}" + (f", excluding {skip}" if skip else "") + ")")
    return 0 if report.passed else 1


def _cmd_pmn(args) -> int:
    value = pmn(args.m, args.n)
    if args.format == "json":
        print(json.dumps({"m": args.m, "n": args.n, "value": str(value),
                          "terms": {str(d): c for d, c in value.items()}},
                         sort_keys=False))
    else:
        print(value)
    return 0


def _cmd_report(args) -> int:
    # elapsed_ms is omitted from JSON unless --timings is given, so that
    # repeated runs with the same options are byte-identical.
    reports = tasks.run_all()
    failed = 0
    for report in reports:
        _print_report(report, args, include_timing=args.timings)
        failed += not report.passed
    if args.format == "text":
        print(f"{len(reports) - failed}/{len(reports)} tasks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crankq",
        description="exact q-series engine and congruence verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--series", help="registry name ("
                           + ", ".join(name.value for name in SeriesName) + ")")
        group.add_argument("--quotient", help="eta-quotient string, e.g. 'f1^3 * f2^-2'")
        p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help="truncation order (exponents below this are exact)")

    p = sub.add_parser("expand", help="print coefficients of a named series "
                                      "or an eta-quotient string")
    add_source(p)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("dissect", help="print one arithmetic-progression "
                                       "component of a series")
    add_source(p)
    p.add_argument("--m", type=int, required=True, help="dissection modulus")
    p.add_argument("--r", type=int, required=True, help="residue class")
    p.set_defaults(fn=_cmd_dissect)

    p = sub.add_parser("verify", help="run verification tasks")
    p.add_argument("--theorem", action="append",
                   help="task id (repeatable); see --list")
    p.add_argument("--all", action="store_true", help="run every task")
    p.add_argument("--alpha", type=int, help="power index where applicable")
    p.add_argument("--p", type=int, help="prime parameter where applicable")
    p.add_argument("--n-max", type=int,
                   help="progression scan bound; on the P(m,n) grid tasks "
                        "(rec35, rec36, pmn-eval), the top of n")
    p.add_argument("--order", type=int, default=None,
                   help="override the task's default order")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="run a combinatorial counting oracle "
                                      "against the series")
    p.add_argument("--which", choices=list(ORACLES), required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("pmn", help="print P(m,n) as a Laurent polynomial in K")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_pmn)

    p = sub.add_parser("report", help="run the full verification suite")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed_ms in JSON output (non-deterministic)")
    p.set_defaults(fn=_cmd_report)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("list", help="list task ids and descriptions")
    p.set_defaults(fn=lambda a: _cmd_list())
    return parser


def _cmd_list() -> int:
    for tid in tasks.task_ids():
        print(f"{tid:18s} {tasks.describe(tid)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.fn(args)
        sys.stdout.flush()          # a closed pipe shows here, not at exit
        return status
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
