import contextlib
import os
import signal

import pytest

from helpers import live_children


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a live child process of the test run behind,
    and end that child so the next test starts clean."""
    before = set(live_children())
    yield
    left = sorted(set(live_children()) - before)
    for pid in left:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if left:
        pytest.fail(f"child processes left running: {left}")
