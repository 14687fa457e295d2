"""Per-test deadline for the benchmark's own tests.

They boot live clusters; the alarm turns a wedged node into a prompt,
attributable failure instead of a hung suite, and the cluster context
managers still reap every node on the way out.
"""

from __future__ import annotations

import signal

import pytest

#: Wall-clock budget of one test (the slowest boots two clusters).
TEST_TIMEOUT_S = 120


class DeadlineExceeded(Exception):
    """Not an ``OSError`` (as ``TimeoutError`` is), so the driver's wire-error
    handling cannot mistake it for a failed transaction."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise DeadlineExceeded(f"benchmark test exceeded its {TEST_TIMEOUT_S}s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
