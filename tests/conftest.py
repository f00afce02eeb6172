"""Suite-wide hygiene: the test process must end with no live children.

A pool that orphans a worker subprocess (or a daemon drill that never
reaps its server) would otherwise pass silently and leak processes into
whatever runs next.  Linux only: children are read from
``/proc/self/task/*/children``.
"""

import glob
import sys
import time

import pytest

#: How long stragglers get to exit after the last test (a just-killed
#: worker can take a moment to be reaped).
GRACE_SECONDS = 5.0


def _live_children():
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    live = []
    for pid in sorted(pids):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(
                    "utf-8", "replace").strip()
        except OSError:
            continue
        if state != "Z":
            live.append(f"{pid} {command}")
    return live


@pytest.fixture(scope="session", autouse=True)
def no_leaked_child_processes():
    yield
    if not sys.platform.startswith("linux"):
        return
    deadline = time.monotonic() + GRACE_SECONDS
    live = _live_children()
    while live and time.monotonic() < deadline:
        time.sleep(0.1)
        live = _live_children()
    if live:
        pytest.fail("test session leaked live child processes:\n  "
                    + "\n  ".join(live), pytrace=False)
