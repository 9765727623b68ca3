"""Package-wide invariants: exported names resolve, one run of every
task computes each coefficient of every cached series once, multiplies
no two series and plans each eta quotient as pinned, run_task checks its
arguments, and the README's library tour runs as written."""

import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import crankq
from crankq import etaq, kalgebra, tasks, theta
from crankq.errors import CrankqError
from crankq.series import Series


def test_every_exported_name_resolves():
    names = [m.name for m in pkgutil.iter_modules(crankq.__path__)
             if m.name != "__main__"]          # importing it runs the CLI
    for module in [crankq] + [importlib.import_module(f"crankq.{n}") for n in names]:
        missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"


def test_run_all_computes_each_cached_coefficient_once(monkeypatch):
    # From an empty cache, every key is grown only to new orders, so the
    # coefficients its extensions compute add up to the largest order any
    # task requested, counted from the product's shift: nothing is built
    # twice and nothing is built that no task asks for.
    requested, extended = defaultdict(list), defaultdict(list)
    lookup, extend = etaq._lookup, etaq._Product._extend

    def spy_lookup(key, order):
        requested[key].append(order)
        return lookup(key, order)

    def spy_extend(entry, n):
        old = 0 if entry.series is None else entry.series.order - entry.shift
        extended[entry].append(n - old)
        return extend(entry, n)

    monkeypatch.setattr(etaq, "_CACHE", {})
    monkeypatch.setattr(etaq, "_lookup", spy_lookup)
    monkeypatch.setattr(etaq._Product, "_extend", spy_extend)
    tasks.run_all()
    entries = dict(etaq._CACHE)
    assert set(entries) == set(requested) == set(etaq.SeriesName)
    for key, entry in entries.items():
        lengths = extended[entry]
        assert all(length > 0 for length in lengths), (key, lengths)
        assert sum(lengths) == max(requested[key]) - entry.shift, (key, lengths)


@pytest.mark.parametrize("order", [None, 400])
def test_no_task_multiplies_two_series(monkeypatch, order):
    # every task build is a factor list run by passes: the schoolbook
    # Series * Series product stays library API and a test reference
    products = []
    mul = Series.__mul__

    def spy_mul(self, other):
        if isinstance(other, Series):
            products.append((self.order, other.order))
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", spy_mul)
    tasks.run_all(order=order)
    assert products == []


# (shift, factors) -> plan: every eta quotient the tasks plan, at their
# defaults and at order 400, as the planner planned them before its
# candidate loop was rewritten; a planner change must not move one
# silently
_PLANS = {
    (-1, ((1, -1), (2, 1), (5, 5), (10, -5))):
        (('triangular', 1, 1), ('pent', 5, 1), ('eta', 2, -1), ('jacobi', 10, -1)),
    (0, ((1, -3), (2, 2))): (('squares', 2, 1), ('eta', 4, 1), ('jacobi', 1, -1)),
    (0, ((1, -1),)): (('eta', 1, -1),),
    (0, ((1, 1),)): (('eta', 1, 1),),
    (0, ((1, 1), (2, 2))): (('eta', 1, 1), ('squares', 2, 1), ('eta', 4, 1)),
    (0, ((1, 2), (2, -4), (5, 1), (10, 2))):
        (('squares', 1, 1), ('eta', 5, 1), ('squares', 10, 1), ('eta', 20, 1),
         ('jacobi', 2, -1)),
    (0, ((1, 2), (2, -4), (5, 6))):
        (('squares', 1, 1), ('jacobi', 5, 2), ('jacobi', 2, -1)),
    (0, ((1, 3), (2, -2))): (('squares', 1, 1), ('eta', 1, 1), ('eta', 2, -1)),
    (0, ((1, 3), (2, -2), (5, -1), (10, 2))):
        (('squares', 1, 1), ('eta', 1, 1), ('triangular', 5, 1), ('eta', 2, -1)),
    (0, ((1, 3), (2, 1))): (('jacobi', 1, 1), ('eta', 2, 1)),
    (0, ((1, 4), (2, 2))):
        (('jacobi', 1, 1), ('eta', 1, 1), ('squares', 2, 1), ('eta', 4, 1)),
    (0, ((1, 5),)): (('pent', 1, 1), ('eta', 2, 2)),
    (0, ((1, 25),)): (('pent', 1, 2), ('jacobi', 1, 5), ('jacobi', 2, 1), ('eta', 2, 1)),
    (0, ((2, 2), (10, 2))):
        (('squares', 2, 1), ('eta', 4, 1), ('squares', 10, 1), ('eta', 20, 1)),
    (0, ((2, 5),)): (('pent', 2, 1), ('eta', 4, 2)),
    (0, ((5, -6), (25, 5))): (('pent', 25, 1), ('eta', 50, 2), ('jacobi', 5, -2)),
    (0, ((5, 1),)): (('eta', 5, 1),),
    (0, ((5, 5),)): (('pent', 5, 1), ('eta', 10, 2)),
    (0, ((10, 1),)): (('eta', 10, 1),),
    (0, ((25, 1),)): (('eta', 25, 1),),
    (1, ((1, 5), (2, -6), (5, -3), (10, 6))):
        (('squares', 1, 1), ('eta', 1, 1), ('cubic', 5, 1), ('triangular', 5, 1),
         ('cubic', 1, -1), ('eta', 10, -1)),
    (1, ((2, -1), (5, -2), (10, 2))):
        (('triangular', 5, 1), ('eta', 2, -1), ('eta', 5, -1)),
    (1, ((2, -1), (5, -2), (10, 5))): (('cubic', 5, 1), ('eta', 2, -1)),
    (2, ((1, 2), (5, -4), (10, 8))):
        (('squares', 1, 1), ('eta', 2, 1), ('cubic', 5, 1), ('squares', 10, 1),
         ('eta', 20, 1), ('squares', 5, -1)),
    (2, ((1, 7), (2, -10), (5, -5), (10, 10))):
        (('pent', 1, 1), ('cubic', 5, 2), ('cubic', 1, -1), ('jacobi', 2, -1),
         ('eta', 5, -1)),
}


@pytest.mark.parametrize("order", [None, 400])
def test_every_task_plan_is_pinned(monkeypatch, order):
    plans = {}
    plan_quotient = etaq.plan_quotient

    def spy(spec):
        plans[spec.shift, spec.factors] = plan = plan_quotient(spec)
        return plan

    for module in (etaq, theta, kalgebra):
        monkeypatch.setattr(module, "plan_quotient", spy)
    monkeypatch.setattr(etaq, "_CACHE", {})     # named series plan on a miss
    if order is None:
        tasks.run_all()
    else:
        for tid in tasks.task_ids():
            if not tid.startswith("oracle-"):
                tasks.run_task(tid, order=order)
    assert plans == _PLANS


@pytest.mark.parametrize("call, message", [
    (lambda: tasks.run_task("thm12", p=3), "unsupported parameter 'p'"),
    (lambda: tasks.run_task("rec35", order=0), "order must be >= 1, got 0"),
], ids=["keyword", "order"])
def test_run_task_checks_what_it_is_given(call, message):
    with pytest.raises(CrankqError) as info:
        call()
    assert str(info.value) == message


def test_run_task_passes_order_only_to_tasks_that_take_it():
    # the symbolic recurrences have no order and report 0 at any order
    assert tasks.run_task("rec35", order=400).order == 0
    assert tasks.run_task("rec35").order == 0
    assert tasks.run_task("a51", order=40).order == 40


def test_readme_tour_runs_as_written():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    tour = tour.split("```", 1)[0]
    namespace = {}
    exec(tour, namespace)
    comments = dict(line.split("#", 1) for line in tour.splitlines() if "#" in line)
    comments = {code.strip(): comment.strip() for code, comment in comments.items()}
    # each expression's value, as its comment gives it
    for code, shown in (("c.coeff(4)", "5"), ("column.agree(rhs * 5)", "True"),
                        ("pmn(2, 0)", "K^2 + 2")):
        assert comments[code].split(",")[0] == shown
        assert str(eval(code, namespace)) == shown
