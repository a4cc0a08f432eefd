"""A time bound on every test: one that runs past TEST_BOUND_S fails instead
of hanging the suite.  The slowest test takes a few seconds.

The bound is a SIGALRM whose handler raises BoundExceeded.  It derives from
BaseException, not Exception, and is not pytest's Failed, so hypothesis does
not take it for a failing example and replay the hanging input; pytest still
reports it as a failure.  Platforms without SIGALRM run unbounded.
"""
from __future__ import annotations

import signal

import pytest

TEST_BOUND_S = 300


class BoundExceeded(BaseException):
    pass


def _expired(signum, frame):
    raise BoundExceeded(f"test ran past its {TEST_BOUND_S} s bound")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_BOUND_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
