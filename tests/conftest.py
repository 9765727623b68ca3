import pytest

from crankq.etaq import named_series
from crankq.tasks import WARM_ORDERS


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")


@pytest.fixture(scope="session", autouse=True)
def warm_shared_series():
    # Compute the big shared series once at their suite-wide maxima so
    # individual tests reuse the cache instead of growing it piecemeal.
    for name, n in WARM_ORDERS.items():
        named_series(name, n)
