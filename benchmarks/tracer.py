"""Span tracing of crankq from outside the package.

:func:`install` replaces the public functions of each crankq module with
recording wrappers, at every module binding (``theta``, ``kalgebra``,
``congruence`` and ``cli`` import ``named_series`` and friends by name),
and wraps the kernel methods of ``Series`` on the class.  Nothing under
``src/`` changes.  Spans stay in memory as lists
``[name, start, end, parent, pass_id, attrs]`` and are written out by
the caller when the run ends.

:func:`layer_metrics` turns the spans of one pass into the per-layer
metrics.  Every layer's ``.s`` metric is self time: a span's duration
minus the time its child spans cover, so the layers add up to the traced
wall.  ``tasks.<id>.s`` is the whole duration of that task's
``run_task`` call, to attribute the wall time to tasks.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from itertools import compress
from time import perf_counter

BUILD_SPANS = ("etaq.build", "etaq.rr")
LOOKUP_SPAN = "etaq.lookup"


def partition_counts(limit: int) -> list[int]:
    """p(0) .. p(limit) by the coin-change recurrence."""
    counts = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            counts[n] += counts[n - part]
    return counts


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_id = 0

    def start_pass(self, pass_id: int) -> None:
        self.spans = []
        self.stack = []
        self.pass_id = pass_id

    def wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.pass_id,
                   attrs(*args, **kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return traced


# ----------------------------------------------------------------------
# work counts, computed from the operands before the call


def _nnz(coeffs) -> int:
    return len(coeffs) - coeffs.count(0)


def _mul_attrs(a, b):
    """Multiply-adds the schoolbook loop in ``Series.__mul__`` performs.

    The operand with fewer nonzero entries runs the outer loop; each of
    its nonzero entries, at position i, costs one row of
    ``min(len(other), length - i)`` multiply-adds.
    """
    if isinstance(b, int):
        return {"ops": len(a.coeffs), "dense": False}
    if not hasattr(b, "coeffs") or not a.coeffs or not b.coeffs:
        return {"ops": 0, "dense": False}
    length = min(a.valuation + b.order, b.valuation + a.order) - a.valuation - b.valuation
    x, y = a.coeffs, b.coeffs
    if _nnz(x) > _nnz(y):
        x, y = y, x
    if length <= 0:
        return {"ops": 0, "dense": False}
    cut = max(min(length - len(y) + 1, len(x)), 0)
    head, tail = x[:cut], x[cut:length]
    tail_nz = _nnz(tail)
    tail_ops = tail_nz * length - sum(compress(range(cut, cut + len(tail)), tail))
    return {"ops": _nnz(head) * len(y) + tail_ops, "dense": 2 * _nnz(x) > len(x)}


def _invert_attrs(a):
    """Multiply-adds of the inversion recurrence: sum of length - k over
    the nonzero entries k >= 1 of the operand."""
    c = a.coeffs
    if len(c) < 2:
        return {"ops": 0}
    tail = c[1:]
    count = _nnz(tail)
    return {"ops": count * len(c) - sum(compress(range(1, len(c)), tail))}


# ----------------------------------------------------------------------
# what to wrap

_SERIES_METHODS = {
    "__mul__": ("series.mul", _mul_attrs),
    "__rmul__": ("series.mul", _mul_attrs),
    "invert": ("series.invert", _invert_attrs),
    "__add__": ("series.scan", None),
    "__radd__": ("series.scan", None),
    "extract": ("series.scan", None),
    "first_diff": ("series.scan", None),
    "reduce_mod": ("series.scan", None),
    "truncate": ("series.scan", None),
    "exact_div": ("series.scan", None),
}


def _function_plan(modules, partitions):
    etaq = modules["crankq.etaq"]

    def series_key(name, order=None, *rest, **kw):
        try:
            key = etaq.resolve_name(name).value
        except (AttributeError, ValueError):
            key = str(name)
        return {"key": key, "order": order if order is not None else kw.get("order")}

    def oracle_attrs(n, *rest, **kw):
        if n < 0:
            return {"partitions": 0}
        return {"partitions": (partitions if n < len(partitions)
                               else partition_counts(n))[n]}

    return [
        ("crankq.etaq", "eta_quotient", "etaq.build", None),
        ("crankq.etaq", "_build_f_conv", "etaq.build", None),
        ("crankq.etaq", "residue_product", "etaq.rr", None),
        ("crankq.etaq", "named_series", LOOKUP_SPAN, series_key),
        ("crankq.etaq", "rr_series", LOOKUP_SPAN,
         lambda order: {"key": "R", "order": order}),
        ("crankq.theta", "theta_sum", "theta.theta_sum", None),
        ("crankq.kalgebra", "pmn", "kalgebra.pmn", None),
        ("crankq.kalgebra", "pmn_series", "kalgebra.pmn_series", None),
        ("crankq.kalgebra", "eval_at_K", "kalgebra.eval_at_K", None),
        ("crankq.congruence", "crank_parity_oracle", "congruence.oracle", oracle_attrs),
        ("crankq.congruence", "colored_partition_oracle", "congruence.oracle",
         oracle_attrs),
        ("crankq.congruence", "check_progression", "congruence.scan", None),
        ("crankq.congruence", "cooper_hirschhorn_check", "congruence.scan", None),
        ("crankq.tasks", "run_task", "tasks",
         lambda tid, *rest, **kw: {"id": tid}),
        ("crankq.tasks", "run_all", "tasks.run_all", None),
        ("crankq.cli", "main", "cli", None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap the freshly imported crankq modules in ``sys.modules``.

    A function missing from the package is skipped, so the same
    benchmark runs on a version that has merged or removed it.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "crankq" or name.startswith("crankq.")}
    wrappers: dict[int, tuple[object, object]] = {}
    for modname, attr, span, attrs in _function_plan(modules, partition_counts(100)):
        fn = getattr(modules.get(modname), attr, None)
        if callable(fn):
            wrappers[id(fn)] = (fn, tracer.wrap(span, fn, attrs))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
    series_cls = modules["crankq.series"].Series
    for attr, (span, attrs) in _SERIES_METHODS.items():
        fn = series_cls.__dict__.get(attr)
        if fn is not None:
            setattr(series_cls, attr, tracer.wrap(span, fn, attrs))


# ----------------------------------------------------------------------
# per-layer metrics of one pass

LAYER_TIMES = (
    "congruence.oracle", "congruence.scan",
    "series.mul", "series.invert", "series.scan",
    "etaq.build", "etaq.rr",
    "kalgebra.pmn", "kalgebra.pmn_series", "kalgebra.eval_at_K",
    "theta.theta_sum", "cli",
)


def layer_metrics(spans: list[list], wall: float, task_ids) -> dict[str, float]:
    """Per-layer values of one traced pass whose timed wall was ``wall``."""
    child_time = [0.0] * len(spans)
    built_under: set[int] = set()
    for rec in spans:
        parent = rec[3]
        if parent >= 0:
            child_time[parent] += rec[2] - rec[1]
            if rec[0] in BUILD_SPANS:
                built_under.add(parent)
    self_s: dict[str, float] = defaultdict(float)
    task_s: dict[str, float] = defaultdict(float)
    mul_calls = mul_ops = dense_ops = invert_ops = partitions = 0
    lookups = hits = wasted = built = 0
    max_built: dict[str, int] = {}
    top_level = 0.0
    for i, rec in enumerate(spans):
        name, start, end, parent, _, attrs = rec
        duration = end - start
        if parent < 0:
            top_level += duration
        if name == "tasks":
            task_s[attrs["id"]] += duration
        self_s[name] += duration - child_time[i]
        if name == "series.mul":
            mul_calls += 1
            mul_ops += attrs["ops"]
            dense_ops += attrs["ops"] if attrs["dense"] else 0
        elif name == "series.invert":
            invert_ops += attrs["ops"]
        elif name == "congruence.oracle":
            partitions += attrs["partitions"]
        elif name == LOOKUP_SPAN:
            lookups += 1
            if i not in built_under:
                hits += 1
                continue
            order = attrs["order"] or 0
            prior = max_built.get(attrs["key"], 0)
            wasted += min(order, prior)
            built += order
            max_built[attrs["key"]] = max(prior, order)

    out = {f"{layer}.s": self_s.get(layer, 0.0) for layer in LAYER_TIMES}
    out.update({
        "congruence.oracle.partitions": partitions,
        "series.mul.calls": mul_calls,
        "series.mul.ops": mul_ops,
        "series.mul.dense_share": dense_ops / mul_ops if mul_ops else 0.0,
        "series.invert.ops": invert_ops,
        "etaq.named_series.calls": lookups,
        "etaq.hit_ratio": hits / lookups if lookups else 0.0,
        "etaq.rebuild_waste_ratio": wasted / built if built else 0.0,
        "etaq.cached_coeffs": sum(max_built.values()),
        "trace.coverage": top_level / wall if wall > 0 else 0.0,
        "trace.spans": len(spans),
    })
    for tid in task_ids:
        out[f"tasks.{tid}.s"] = task_s.get(tid, 0.0)
    return out
