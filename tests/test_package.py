"""Package-wide invariants: exported names resolve, one run of every
task computes each coefficient of every cached series once and multiplies
no two series, and the README's library tour runs as written."""

import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import crankq
from crankq import etaq, tasks
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
