"""Package-wide invariants: exported names resolve, and one run of every
task computes each coefficient of every cached series once."""

import importlib
import pkgutil
from collections import defaultdict

import crankq
from crankq import etaq, tasks


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
