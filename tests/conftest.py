import threading

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test after which a thread runs that did not run before it:
    table scoring and training start threads, and every one must be joined
    before the call returns."""
    before = set(threading.enumerate())
    yield
    leaked = [thread.name for thread in threading.enumerate() if thread not in before]
    if leaked:
        pytest.fail(f"threads left running after the test: {leaked}")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(label): acceptance criterion; prints one [PASS]/[FAIL] line",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is not None and report.when == "call":
        report.user_properties.append(("criterion", marker.args[0]))


def pytest_runtest_logreport(report):
    """Emit the acceptance verdict lines outside of output capture."""
    if report.when != "call":
        return
    for key, label in report.user_properties:
        if key == "criterion":
            status = "PASS" if report.passed else "FAIL"
            print(f"\n[{status}] {label}", flush=True)
