#!/usr/bin/env python3
"""crankq benchmark: cold passes of three workloads, checked against golden.

Run from the repository root (stdlib only; crankq is imported from ./src):

    python3 benchmarks/run.py --workload report --seed 1 --seconds 25 --trace 0

Workloads (benchmarks/README.md says why each one exists):

* ``report``       -- ``crankq report --format json`` through ``crankq.cli.main``;
* ``verify-order`` -- the 31 non-oracle tasks at ``order=400``;
* ``series-build`` -- p, C, a, d, h, K, A and R(q) at ascending then
  descending orders up to N = 4000, then f at N/5 - 1.

The seed draws the task order (verify-order) and the name order
(series-build) of every pass.  Every pass re-imports crankq, so it starts
with every module-level cache empty, as a fresh ``crankq`` process does.
Passes repeat until ``--seconds`` of calls have run.  Call times are
reported at a reference CPU speed (see speed.py); raw times are printed
on the ``#`` lines.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate, it holds the per-layer metrics, and the spans are written to
``benchmarks/.trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
TRACE_DIR = BENCH_DIR / ".trace"

SETUP_REPS = 7
VERIFY_ORDER = 400
ORACLE_TASKS = ("oracle-colored", "oracle-crank")
SERIES_N = 4000
SERIES_KEYS = ("p", "C", "a", "d", "h", "K", "A", "R")
# f at N/5 - 1 needs C below 5 * (N/5 - 1) + 5 = N, which the ladder cached.
F_ORDER = SERIES_N // 5 - 1

# Independent statement of the eta quotients (shift, {m: e}) for the
# prefix cross-check against the naive products in tests/oracles.py.
ETA_SPECS = {
    "p": (0, {1: -1}),
    "C": (0, {1: 3, 2: -2}),
    "a": (0, {1: -3, 2: 2}),
    "d": (0, {1: 4, 2: 2}),
    "h": (0, {1: 3, 2: 1}),
    "K": (-1, {1: -1, 2: 1, 5: 5, 10: -5}),
    "A": (0, {1: 2, 2: -4, 5: 6}),
}
PREFIX = 40


def fresh_crankq():
    """Import crankq from ./src with no module state left from earlier passes."""
    for name in [n for n in sys.modules if n == "crankq" or n.startswith("crankq.")]:
        del sys.modules[name]
    crankq = importlib.import_module("crankq")
    importlib.import_module("crankq.cli")
    if not Path(crankq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"crankq imported from {crankq.__file__}, not from {SRC}")
    return crankq


def digest(series) -> str:
    h = hashlib.sha256(f"{series.valuation}:{series.order}:".encode())
    h.update(",".join(map(str, series.coeffs)).encode())
    return h.hexdigest()[:20]


# ----------------------------------------------------------------------
# workloads: inputs(rng) gives the call sequence of one pass, call() is
# the timed call into crankq, observe() turns its result into the value
# compared with golden, and compare() counts (attempted, failed).


def _compare_one(got, want):
    return 1, int(got != want)


class Report:
    name = "report"

    def inputs(self, rng, golden):
        return [["report", "--format", "json"]]

    def call(self, crankq, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = crankq.cli.main(argv)
        return rc, buf.getvalue()

    def observe(self, argv, result):
        rc, text = result
        return "report", {"rc": rc, "lines": text.splitlines(keepends=True)}

    @staticmethod
    def compare(got, want):
        """One operation per task line, plus one for the exit code; equal
        lines with their line ends mean byte-identical output."""
        lines, golden = got["lines"], want["lines"]
        failed = sum(a != b for a, b in zip(lines, golden))
        failed += abs(len(lines) - len(golden)) + (got["rc"] != want["rc"])
        return len(golden) + 1, failed


class VerifyOrder:
    name = "verify-order"
    compare = staticmethod(_compare_one)

    def inputs(self, rng, golden):
        ids = sorted(golden)
        rng.shuffle(ids)
        return ids

    def call(self, crankq, tid):
        return crankq.tasks.run_task(tid, order=VERIFY_ORDER)

    def observe(self, tid, report):
        return tid, {"outcome": report.outcome, "witness": report.witness}


class SeriesBuild:
    name = "series-build"
    compare = staticmethod(_compare_one)
    orders = [SERIES_N // 8, SERIES_N // 4, SERIES_N // 2, SERIES_N]

    def __init__(self):
        self.largest = {}

    def inputs(self, rng, golden):
        self.largest = {}
        keys = list(SERIES_KEYS)
        rng.shuffle(keys)
        calls = []
        for key in keys:
            calls += [(key, n, "up") for n in self.orders]
            calls += [(key, n, "down") for n in reversed(self.orders)]
        return calls + [("f", F_ORDER, "up")]

    def call(self, crankq, op):
        key, n, _ = op
        if key == "R":
            return crankq.etaq.rr_series(n)
        return crankq.etaq.named_series(key, n)

    def observe(self, op, series):
        """Digest of the series; a descending request (a cache hit) must
        also equal the truncation of the largest build of its key."""
        key, n, phase = op
        if phase == "up" and n == SERIES_N:
            self.largest[key] = series
        obs = digest(series)
        if phase == "down":
            big = self.largest[key]
            # truncate() by hand: the traced Series methods must only run
            # inside timed calls.
            if (series.valuation, series.order, series.coeffs) != (
                    big.valuation, n, big.coeffs[:n - big.valuation]):
                obs = "hit differs from the truncated largest build"
        return f"{key}@{n}", obs

    def prefix_check(self) -> list[str]:
        """Compare a prefix of each built eta quotient with tests/oracles.py."""
        sys.path.insert(0, str(ROOT / "tests"))
        try:
            import oracles
        finally:
            sys.path.pop(0)
        errors = []
        for key, (shift, factors) in ETA_SPECS.items():
            naive = [1] + [0] * (PREFIX - 1)
            for m, e in factors.items():
                base = oracles.naive_euler(m, PREFIX)
                if e < 0:
                    base = oracles.naive_inv(base, PREFIX)
                naive = oracles.naive_mul(naive, oracles.naive_pow(base, abs(e), PREFIX),
                                          PREFIX)
            built = self.largest.get(key)
            got = built and [built.coeff(shift + i) for i in range(PREFIX)]
            if got != naive:
                errors.append(f"{key}: prefix differs from the naive product")
        return errors


WORKLOADS = {w.name: w for w in (Report(), VerifyOrder(), SeriesBuild())}


# ----------------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg": [round(x, 2) for x in os.getloadavg()]}


class Run:
    """Cold passes of one workload, each call timed and checked against golden."""

    def __init__(self, workload, golden: dict, seed: int):
        self.workload = workload
        self.golden = golden
        self.rng = random.Random(seed)
        self.clock = speed.SpeedClock()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def setup(self):
        """Import crankq afresh and generate one pass's call sequence."""
        crankq = fresh_crankq()
        return crankq, self.workload.inputs(self.rng, self.golden)

    def one_pass(self, crankq, calls) -> tuple[float, float, float]:
        """Run the calls; return their summed raw, reference-speed and
        elapsed times (see speed.SpeedClock.call)."""
        workload, clock = self.workload, self.clock
        raw = scaled = elapsed = 0.0
        gc.collect()
        for op in calls:
            try:
                result, op_raw, op_scaled, op_elapsed = clock.call(workload.call, crankq, op)
                key, got = workload.observe(op, result)
            except Exception:  # a raising operation is a failed one; go on
                traceback.print_exc(file=sys.stderr)
                key, got = repr(op), None
            else:
                raw += op_raw
                scaled += op_scaled
                elapsed += op_elapsed
            want = self.golden.get(key)
            attempted, failed = (1, 1) if want is None else workload.compare(got, want)
            self.attempted += attempted
            self.failed += failed
            if failed:
                self.errors.append(f"{key}: got {got!r:.300}, golden {want!r:.300}")
        return raw, scaled, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "crankq" / "__init__.py").is_file() or not GOLDEN_PATH.is_file():
        print(f"error: needs crankq sources under {SRC} and {GOLDEN_PATH}",
              file=sys.stderr)
        return 1
    env = environment()
    sys.path.insert(0, str(SRC))
    golden_all = json.loads(GOLDEN_PATH.read_text())
    workload = WORKLOADS[args.workload]

    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPS):
        run = Run(workload, golden_all[workload.name], args.seed)
        (crankq, calls), raw, scaled, _ = run.clock.call(run.setup)
        setup_raw.append(raw)
        setup_scaled.append(scaled)

    trace = tracer.Tracer() if args.trace else None
    raw_walls: dict[bool, list[float]] = {False: [], True: []}
    walls: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict] = []
    spans_out = []
    while sum(raw_walls[False] + raw_walls[True]) < args.seconds or (
            trace and not walls[True]):
        traced = bool(trace) and len(walls[False]) > len(walls[True])
        pass_id = len(walls[False]) + len(walls[True])
        if pass_id:
            crankq, calls = run.setup()
        if traced:
            trace.start_pass(pass_id)
            tracer.install(trace)
        raw, scaled, elapsed = run.one_pass(crankq, calls)
        raw_walls[traced].append(raw)
        walls[traced].append(scaled)
        if traced:
            layers.append(tracer.layer_metrics(trace.spans, elapsed,
                                               golden_all["task_ids"]))
            spans_out.append([rec[:5] for rec in trace.spans])

    if workload is WORKLOADS["series-build"]:
        for error in workload.prefix_check():
            run.errors.append(error)
            run.failed += 1
        run.attempted += len(ETA_SPECS)

    for error in run.errors[:20]:
        print(f"MISMATCH {error}", file=sys.stderr)
    end_to_end = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(walls[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - end_to_end["wall_s"]
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"{workload.name}-seed{args.seed}.json"
        out.write_text(json.dumps({"environment": env, "passes": spans_out}))
        # The traced passes hold their spans in memory, so peak RSS here is
        # not the program's; the other two come from the untraced passes.
        del end_to_end["peak_rss_mb"]
    else:
        metrics = end_to_end
    units = {name: unit_of(name) for name in metrics | end_to_end}

    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# environment " + json.dumps(env))
    rows = [("setups", setup_raw, setup_scaled)]
    rows += [(f"{'traced' if t else 'untraced'} passes", raw_walls[t], walls[t])
             for t in (False, True) if walls[t]]
    for label, raws, scaleds in rows:
        print(f"# {len(raws)} {label}, raw s: " + " ".join(f"{w:.4f}" for w in raws))
        print(f"# {len(raws)} {label}, at reference speed s: "
              + " ".join(f"{w:.4f}" for w in scaleds))
    print(f"# op_fail_ratio {run.failed / max(run.attempted, 1):.6g} ratio "
          f"({run.failed} of {run.attempted} operations)")
    if trace:
        for name, value in end_to_end.items():
            print(f"# {name} {value:.6g} {units[name]} (untraced)")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "share", "coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
