"""Package-wide invariants: exported names resolve, and the warm-up
orders of ``run_all`` are the suite maxima."""

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


def test_warm_orders_are_the_suite_maxima(monkeypatch):
    # From an empty cache, run_all must build every named series once, and
    # the warm-up orders must be exactly what the largest task asks for:
    # too small and a task rebuilds the series, too large and no task
    # requests that order.
    requested, built = defaultdict(list), defaultdict(list)
    cached = etaq._cached

    def spy(key, order, build):
        requested[key].append(order)

        def counted(n):
            built[key].append(n)
            return build(n)
        return cached(key, order, counted)

    etaq.clear_cache()
    monkeypatch.setattr(etaq, "_cached", spy)
    tasks.run_all()
    assert all(len(orders) == 1 for orders in built.values()), dict(built)
    for name, n in tasks.WARM_ORDERS.items():
        key = etaq.resolve_name(name)
        assert built[key] == [n] and max(requested[key]) == n
        assert requested[key].count(n) >= 2, f"no task needs {name} at order {n}"
