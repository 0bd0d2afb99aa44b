import contextlib
import signal

import pytest


@pytest.fixture
def time_limit():
    """`with time_limit(seconds):` raises `TimeoutError` in a block that runs
    longer than `seconds`, so a call that never returns fails the test
    instead of stalling the suite. Uses SIGALRM, so the block must run in
    the main thread."""
    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return limit
