"""A time limit on every test: a test that runs longer than ``LIMIT_S``
seconds fails with ``TimeoutError`` instead of stalling the run.  The
slowest test takes a few seconds.  The limit is a ``SIGALRM`` timer, so it
interrupts Python code between bytecodes; a single numpy call that does
not return is not cut short."""
import signal

import pytest

LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        raise TimeoutError(f"test ran longer than {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
