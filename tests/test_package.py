"""Package-wide invariants: exported names resolve, one run of every
task computes each coefficient of every cached series once, multiplies
no two series and plans each eta quotient as pinned, from etaq's table
and not by its search, run_task checks its arguments, a task id runs
only its own check, every check is defined in the task module, the
report and the task outcomes match the benchmark's golden file, and the
README's library tour runs as written."""

import importlib
import json
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import crankq
from crankq import ThetaKind, cli, etaq, kalgebra, tasks
from crankq.errors import CrankqError
from crankq.series import Series


def test_every_exported_name_resolves():
    names = [m.name for m in pkgutil.iter_modules(crankq.__path__)
             if m.name != "__main__"]          # importing it runs the CLI
    for module in [crankq] + [importlib.import_module(f"crankq.{n}") for n in names]:
        missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"


def test_every_task_computes_each_cached_coefficient_once(monkeypatch):
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
    for tid in tasks.task_ids():
        tasks.run_task(tid)
    entries = dict(etaq._CACHE)
    assert set(entries) == set(requested) == set(etaq.SeriesName)
    for key, entry in entries.items():
        lengths = extended[entry]
        assert all(length > 0 for length in lengths), (key, lengths)
        assert sum(lengths) == max(requested[key]) - entry.shift, (key, lengths)


@pytest.mark.parametrize("order", [None, 400])
def test_no_task_multiplies_two_series(monkeypatch, order):
    # every task build is a factor list run by passes: Series * Series,
    # one packed product, is library API only, which the tests check
    # against oracles.naive_mul
    products = []
    mul = Series.__mul__

    def spy_mul(self, other):
        if isinstance(other, Series):
            products.append((self.order, other.order))
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", spy_mul)
    for tid in tasks.task_ids():
        tasks.run_task(tid, order=order)
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

    for module in (etaq, tasks, kalgebra):
        monkeypatch.setattr(module, "plan_quotient", spy)
    monkeypatch.setattr(etaq, "_CACHE", {})     # named series plan on a miss
    for tid in tasks.task_ids():
        if order is None:
            tasks.run_task(tid)
        elif not tid.startswith("oracle-"):
            tasks.run_task(tid, order=order)
    assert plans == _PLANS


def test_the_plan_table_holds_the_pinned_plans():
    # etaq reads these plans and does not search them; a plan ignores the shift
    assert len(etaq._PLANNED) == len(_PLANS)
    assert etaq._PLANNED == {factors: plan for (_, factors), plan in _PLANS.items()}


def _table_text(table: dict) -> str:
    """``table`` written as ``etaq._PLANNED_TEXT`` is, to paste over it."""
    lines = [f"{etaq.EtaQuotientSpec(factors=factors)}: "
             + ", ".join(f"{name} {m} {e}" for name, m, e in plan)
             for factors, plan in sorted(table.items())]
    return '_PLANNED_TEXT = """\n' + "\n".join(lines) + '\n"""'


def test_the_search_reproduces_every_plan_in_the_table():
    # the search is the table's oracle: after a change to _PRICES or to a
    # SUMS row, paste the table this prints over etaq._PLANNED_TEXT
    searched = {factors: etaq._search.__wrapped__(factors) for factors in etaq._PLANNED}
    if searched != etaq._PLANNED:
        print(_table_text(searched))
    assert searched == etaq._PLANNED
    # and the printout of an unchanged table is the committed text
    assert _table_text(etaq._PLANNED) == f'_PLANNED_TEXT = """{etaq._PLANNED_TEXT}"""'


@pytest.mark.parametrize("order", [None, 400])
def test_a_cold_run_plans_nothing(monkeypatch, capsys, order):
    # every quotient a task builds is read from etaq._PLANNED: from an
    # empty cache, neither a report nor the non-oracle tasks at order 400
    # run the search
    searched = {}
    etaq._search.cache_clear()
    search = etaq._search

    def spy(factors):
        searched[factors] = plan = search(factors)
        return plan

    monkeypatch.setattr(etaq, "_search", spy)
    monkeypatch.setattr(etaq, "_CACHE", {})
    if order is None:
        cli.main(["report", "--format", "json"])
    else:
        for tid in tasks.task_ids():
            if not tid.startswith("oracle-"):
                tasks.run_task(tid, order=order)
    capsys.readouterr()
    if searched:
        print(_table_text({**etaq._PLANNED, **searched}))
    assert searched == {}


@pytest.mark.parametrize("call, message", [
    (lambda: tasks.run_task("thm12", p=3), "unsupported parameter 'p'"),
    (lambda: tasks.run_task("rec35", order=0), "order must be >= 1, got 0"),
    # d's relation holds at p = 7 alone and has no corollary scan
    (lambda: tasks.run_task("ch-d", corollary_n_max=0),
     "unsupported parameter 'corollary_n_max'"),
    (lambda: tasks.run_task("ch-d", p=7), "unsupported parameter 'p'"),
    # a negative bound would scan no corollary and pass
    (lambda: tasks.run_task("ch-h", corollary_n_max=-3),
     "corollary_n_max must be >= 0, got -3"),
], ids=["keyword", "order", "ch-d-corollary", "ch-d-p", "ch-h-corollary"])
def test_run_task_checks_what_it_is_given(call, message):
    with pytest.raises(CrankqError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("tid, name, value", [
    ("k33", "which", "34"), ("dis31", "which", "32"), ("rec35", "which", "36"),
    ("theta-pent", "kind", ThetaKind.SQUARES)])
def test_a_task_id_runs_only_its_own_check(tid, name, value):
    # each table row or key is bound to its id positionally, so no
    # keyword can make one id run another id's check
    with pytest.raises(CrankqError) as info:
        tasks.run_task(tid, **{name: value})
    assert str(info.value) == f"unsupported parameter {name!r}"


def test_every_check_is_defined_in_tasks():
    # the task layer is one module: no id runs a body kept elsewhere
    for tid in tasks.task_ids():
        check = tasks._REGISTRY[tid][1]
        check = getattr(check, "func", check)       # a check bound by position
        assert check.__module__ == "crankq.tasks", (tid, check.__module__)


def test_report_and_task_outcomes_match_the_golden_file(capsys):
    # the outputs the benchmark checks against benchmarks/golden.json:
    # the report byte for byte with its exit code, and each non-oracle
    # task's outcome and witness at order 400
    golden = json.loads((Path(__file__).parents[1] / "benchmarks" / "golden.json").read_text())
    rc = cli.main(["report", "--format", "json"])
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert {"rc": rc, "lines": lines} == golden["report"]["report"]
    for tid, want in golden["verify-order"].items():
        report = tasks.run_task(tid, order=400)
        assert {"outcome": report.outcome, "witness": report.witness} == want, tid


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
