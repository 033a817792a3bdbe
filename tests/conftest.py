import signal
from contextlib import contextmanager

import pytest


@contextmanager
def _time_budget(seconds):
    """Turn a hang into a failure: raise once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def time_budget():
    """``with time_budget(seconds): ...`` fails the test instead of hanging."""
    return _time_budget
