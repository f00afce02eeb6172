"""Shared fault injection: one place chaos hooks live.

Two families of hooks, used by both the fuzz campaign (PR 6) and the
artifact store (PR 7):

* **Subprocess hooks** — plain functions addressed by ``module:function``
  task paths (``repro.harness.faults:hang``) that run *inside* pool
  workers and simulate infrastructure failures: a wedged task, a worker
  killed out from under the pool, a flake that heals on retry.

* **In-process fault points** — a small armed-fault registry the
  artifact store consults at its failure-prone moments (payload write,
  file open, atomic replace, lock held).  Tests arm faults with
  :func:`install`; subprocess drills arm them through the
  ``REPRO_STORE_FAULTS`` environment variable (``"torn_write:1,eperm:2"``
  — fault name ``:`` trigger count, count defaulting to 1).  Each armed
  fault fires ``count`` times, then disarms; unarmed points are free.

The registry is deliberately process-local and explicit: production
code paths call :func:`consume`/:func:`mangle_payload` unconditionally,
and with nothing armed those are cheap no-ops — the fault surface ships
in-tree so the CI chaos drills exercise the *real* degradation paths,
not test doubles.
"""

import errno
import os
import signal
import time

#: Environment variable arming store faults in a fresh process.
ENV_VAR = "REPRO_STORE_FAULTS"

#: Known fault names (a typo in a drill should fail loudly, not no-op).
FAULT_NAMES = (
    "torn_write",      # commit only a prefix of the payload bytes
    "bitflip",         # flip one bit in the committed payload
    "eperm",           # EPERM when opening the entry for writing
    "disk_full",       # ENOSPC while writing the entry
    "sigkill_replace", # SIGKILL between tmp write and atomic replace
    "sigkill_locked",  # SIGKILL while holding the entry lock
)

_armed = {}   # fault name -> remaining trigger count
_fired = {}   # fault name -> times fired so far
_env_loaded = False


def install(name, times=1):
    """Arm ``name`` to fire on its next ``times`` consultations."""
    if name not in FAULT_NAMES:
        raise ValueError(f"unknown fault {name!r}; known: {FAULT_NAMES}")
    _armed[name] = _armed.get(name, 0) + times


def clear():
    """Disarm everything and forget firing history (test isolation).
    Also suppresses (re-)reading ``REPRO_STORE_FAULTS`` in this
    process, so a cleared registry stays cleared."""
    global _env_loaded
    _armed.clear()
    _fired.clear()
    _env_loaded = True


def fired(name):
    """How many times ``name`` has fired in this process."""
    return _fired.get(name, 0)


def armed(name):
    """Remaining trigger count for ``name``."""
    _load_env()
    return _armed.get(name, 0)


def _load_env():
    """Arm faults named in ``REPRO_STORE_FAULTS`` (once per process)."""
    global _env_loaded
    if _env_loaded:
        return
    _env_loaded = True
    spec = os.environ.get(ENV_VAR, "")
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition(":")
        install(name, int(count) if count else 1)


def consume(name):
    """True when an armed ``name`` fault should fire now (and charge
    one trigger); False when unarmed."""
    _load_env()
    remaining = _armed.get(name, 0)
    if remaining <= 0:
        return False
    _armed[name] = remaining - 1
    _fired[name] = _fired.get(name, 0) + 1
    return True


# -- store fault points ------------------------------------------------

def mangle_payload(data):
    """The payload bytes that actually reach the disk: a torn write
    commits only a prefix, a bit flip corrupts one byte in the middle.
    With nothing armed, ``data`` passes through untouched."""
    if consume("torn_write"):
        return data[:max(len(data) // 2, 1)]
    if consume("bitflip"):
        index = len(data) // 2
        return data[:index] + bytes([data[index] ^ 0x40]) + data[index + 1:]
    return data


def check_write_open():
    """Raise the armed filesystem error a write would hit (EPERM on a
    read-only store, ENOSPC on a full disk)."""
    if consume("eperm"):
        raise PermissionError(errno.EPERM, "injected EPERM (store fault)")
    if consume("disk_full"):
        raise OSError(errno.ENOSPC, "injected ENOSPC (store fault)")


def maybe_die(point):
    """SIGKILL this process at ``point`` (``"replace"`` — between the
    tmp write and the atomic rename; ``"locked"`` — while holding the
    entry lock) when the matching fault is armed."""
    if consume(f"sigkill_{point}"):
        os.kill(os.getpid(), signal.SIGKILL)


# -- subprocess hooks ----------------------------------------------------

def echo(value):
    """Round-trip check."""
    return value


def hang(seconds=3600.0):
    """Simulate a wedged task: sleep far past any sane deadline."""
    time.sleep(seconds)
    return "woke"


def kill_self():
    """Simulate a segfaulting/OOM-killed worker: die without a reply."""
    os.kill(os.getpid(), signal.SIGKILL)


def kill_self_once(marker_path):
    """Die the first time, succeed on the retry — the infra-flake shape
    the retry-once rule exists for."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return "recovered"


def flaky_once(marker_path):
    """Raise in-band the first time, succeed on the retry."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write(str(os.getpid()))
        raise RuntimeError("injected flake (first attempt)")
    return "recovered"


def bump_metric(amount=1, name="repro_test_bump_total"):
    """Bump a counter in the shared obs registry inside a worker — the
    metrics-merge drills assert the parent sees exactly the sum of the
    successful attempts' deltas."""
    from ..obs.metrics import default_registry

    default_registry().counter(name).inc(amount)
    return amount


def write_pid(path):
    """Report the worker's pid so a test can SIGKILL it externally."""
    with open(path, "w") as handle:
        handle.write(str(os.getpid()))
    return os.getpid()
