def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")
