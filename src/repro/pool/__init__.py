"""One crash-isolated worker pool for every caller that fans work out.

``python -m repro tables --jobs N`` (via
:func:`repro.harness.parallel.run_tasks`), the fuzz campaign and the
``repro serve`` daemon all run their work here.  Each of the ``workers``
slots owns one drain thread and one ``python -m repro.pool`` subprocess
speaking length-prefixed pickle frames over a private pipe pair, so a
hang or a death is always attributable to exactly one task.

Two faces:

* :meth:`WorkerPool.submit` — the warm face: enqueue one
  ``module:function`` call, get a ``concurrent.futures.Future`` that
  resolves to an :class:`Outcome`;
* :meth:`WorkerPool.run` — the batch face: submit every task, then
  gather the outcomes in task order.

One outcome rule, whoever the caller:

* ``timeout`` is final: the worker that missed its deadline is
  SIGKILLed and respawned at once;
* ``crash`` (pipe EOF — segfault, OOM kill, ``kill -9``) and in-band
  ``error`` (an exception the task let escape) are each retried
  ``retries`` times on the same slot, with no backoff;
* after :meth:`WorkerPool.close` every queued or in-flight future
  resolves with :class:`PoolClosed` — nothing is retried or respawned.

One metric envelope: a frame carries whether the *submitting* process
has observability on (:func:`repro.obs.obs_enabled`), decided per
frame.  Only then does the worker snapshot its registry around the
call and send the delta back for the pool to merge into the parent's
registry; otherwise a request is one frame out and one frame in.

The pool never raises for task-level failures — those are outcome
statuses.  Its lifecycle counters and gauges are plain attributes
(:meth:`WorkerPool.counters`), which a caller publishes under its own
metric names with :meth:`~repro.obs.metrics.MetricsRegistry.register_source`.
"""

import collections
import concurrent.futures
import importlib
import os
import pickle
import select
import struct
import subprocess
import sys
import threading
import time

from ..obs import obs_enabled
from ..obs.metrics import default_registry

#: Statuses an outcome can carry.
OK = "ok"
TIMEOUT = "timeout"
CRASH = "crash"
ERROR = "error"

_HEADER = struct.Struct(">Q")
_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class PoolClosed(RuntimeError):
    """Submitted to, or still pending in, a closed pool."""


class Outcome:
    """What happened to one task: ``ok``/``timeout``/``crash``/``error``."""

    __slots__ = ("status", "value", "error", "attempts", "elapsed")

    def __init__(self, status, value=None, error=None, attempts=1,
                 elapsed=0.0):
        self.status = status
        self.value = value
        #: The worker-side exception, or a string describing the failure.
        self.error = error
        self.attempts = attempts
        self.elapsed = elapsed

    @property
    def ok(self):
        return self.status == OK


#: One batch item for :meth:`WorkerPool.run`: the arguments of
#: :meth:`WorkerPool.submit`.  ``call`` is a ``module:function`` path
#: resolved inside the worker; args and kwargs must be picklable.
PoolTask = collections.namedtuple("PoolTask", "call args kwargs deadline",
                                  defaults=((), None, None))


# -- frame protocol (both sides) -----------------------------------------


def write_frame(stream, payload):
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(blob)) + blob)
    stream.flush()


def resolve(path):
    """The object a ``module:attr.attr`` path names."""
    module_name, _, attr = path.partition(":")
    if not attr:
        raise ValueError(f"task call {path!r} is not 'module:function'")
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


# -- parent side ---------------------------------------------------------


class _Died(Exception):
    pass


class _Deadline(Exception):
    pass


class _Child:
    """One worker subprocess and its read buffer; used by one drain
    thread at a time."""

    def __init__(self, warmup):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (_SRC_ROOT, env.get("PYTHONPATH"))))
        command = [sys.executable, "-m", "repro.pool"]
        if warmup:
            command.append(warmup)
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env, close_fds=True)
        self._buffer = bytearray()

    @property
    def alive(self):
        return self.proc.poll() is None

    def kill(self):
        """SIGKILL and reap the worker; its pipes stay open, because
        only the slot's drain thread may close what it reads from."""
        try:
            self.proc.kill()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass

    def close(self):
        self.kill()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass

    def send(self, payload):
        try:
            write_frame(self.proc.stdin, payload)
        except (OSError, ValueError):
            raise _Died from None

    def _read_exact(self, count, deadline):
        while len(self._buffer) < count:
            remaining = deadline - time.monotonic()
            try:
                fd = self.proc.stdout.fileno()
                ready = remaining > 0 and select.select([fd], [], [],
                                                        remaining)[0]
                chunk = os.read(fd, 1 << 16) if ready else None
            except (OSError, ValueError):
                raise _Died from None
            if chunk is None:
                raise _Deadline
            if not chunk:
                raise _Died
            self._buffer += chunk
        blob = bytes(self._buffer[:count])
        del self._buffer[:count]
        return blob

    def receive(self, deadline):
        (length,) = _HEADER.unpack(self._read_exact(_HEADER.size, deadline))
        return pickle.loads(self._read_exact(length, deadline))


def _settle(future, outcome=None, error=None):
    """Resolve ``future`` unless something (close, cancel) already did."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(outcome)
    except concurrent.futures.InvalidStateError:
        pass


class WorkerPool:
    """A fixed-width pool of crash-isolated worker subprocesses.

    ``deadline`` is the per-attempt wallclock limit in seconds (a task
    may override it); ``warmup`` is an optional ``module:function`` each
    worker calls before it reads its first frame, so a fresh or
    respawned worker pays its import cost up front.  Workers spawn on
    :meth:`start` (or the first submit); use the pool as a context
    manager to close it.
    """

    def __init__(self, workers=2, deadline=30.0, retries=1, warmup=None):
        self.workers = max(int(workers), 1)
        self.deadline = deadline
        self.retries = max(int(retries), 0)
        self.warmup = warmup
        self.spawns = self.kills = self.respawns = 0
        self.inflight = 0
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._pending = collections.deque()
        self._running = [None] * self.workers
        self._children = [None] * self.workers
        self._threads = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def start(self):
        """Spawn every worker and its drain thread (idempotent)."""
        with self._lock:
            if self._threads or self._closed:
                return self
            for slot in range(self.workers):
                self._children[slot] = _Child(self.warmup)
                self.spawns += 1
                thread = threading.Thread(target=self._drain, args=(slot,),
                                          name=f"repro-pool-{slot}",
                                          daemon=True)
                thread.start()
                self._threads.append(thread)
        return self

    def close(self):
        """Kill every worker and resolve every queued or in-flight
        future with :class:`PoolClosed`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            doomed = [future for future, _, _ in self._pending]
            doomed += [future for future in self._running if future]
            self._pending.clear()
            children = [child for child in self._children if child]
            for child in children:
                child.kill()
            self._children = [None] * self.workers
            self._ready.notify_all()
        for future in doomed:
            _settle(future, error=PoolClosed("worker pool is closed"))
        for thread in self._threads:
            thread.join(timeout=5)
        for child in children:
            child.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- introspection -------------------------------------------------

    @property
    def queue_depth(self):
        """Tasks waiting with no idle worker left to take them.  (A task
        an idle worker has not picked up *yet* is not a backlog, or two
        near-simultaneous submits would see each other as queued.)"""
        with self._lock:
            return max(0, len(self._pending) + self.inflight - self.workers)

    def worker_pids(self):
        """Live worker PIDs (the kill drills target these)."""
        with self._lock:
            return [child.proc.pid for child in self._children
                    if child is not None and child.alive]

    def counters(self):
        """Lifecycle counters and gauges, for
        :meth:`~repro.obs.metrics.MetricsRegistry.register_source`."""
        return {"worker_spawns_total": self.spawns,
                "worker_kills_total": self.kills,
                "worker_respawns_total": self.respawns,
                "queue_depth": self.queue_depth,
                "inflight": self.inflight,
                "workers": self.workers}

    # -- the two faces -------------------------------------------------

    def submit(self, call, args=(), kwargs=None, deadline=None):
        """Enqueue ``call(*args, **kwargs)`` (``call`` a
        ``module:function`` path); returns a Future[:class:`Outcome`]."""
        if not self._threads:
            self.start()
        future = concurrent.futures.Future()
        frame = (call, tuple(args), dict(kwargs or {}), obs_enabled())
        with self._lock:
            if self._closed:
                raise PoolClosed("worker pool is closed")
            self._pending.append((future, frame, self.deadline
                                  if deadline is None else deadline))
            self._ready.notify()
        return future

    def run(self, tasks):
        """Submit every task (:class:`PoolTask` or a tuple of
        :meth:`submit`'s arguments), then return the outcomes in task
        order."""
        futures = [self.submit(*task) for task in tasks]
        return [future.result() for future in futures]

    # -- drain loop ----------------------------------------------------

    def _child(self, slot, replace=False):
        """The slot's live worker, respawned if it died while idle; with
        ``replace``, the current one is killed and respawned at once."""
        with self._lock:
            if self._closed:
                raise PoolClosed("worker pool is closed")
            child = self._children[slot]
            if replace or not child.alive:
                if replace:
                    self.kills += 1
                child.close()
                child = self._children[slot] = _Child(self.warmup)
                self.spawns += 1
                self.respawns += 1
            return child

    def _drain(self, slot):
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._ready.wait()
                if self._closed:
                    return
                future, frame, deadline = self._pending.popleft()
                if not future.set_running_or_notify_cancel():
                    continue
                self._running[slot] = future
                self.inflight += 1
            try:
                _settle(future, self._execute(slot, frame, deadline))
            except PoolClosed as error:
                _settle(future, error=error)
            except Exception as error:  # noqa: BLE001 — keep the slot alive
                # A reply the parent cannot unpickle, or a failed spawn:
                # the task fails, the slot goes on draining.
                _settle(future, Outcome(ERROR, error=error))
            finally:
                with self._lock:
                    self._running[slot] = None
                    self.inflight -= 1

    def _execute(self, slot, frame, deadline):
        started = time.monotonic()
        attempts = self.retries + 1
        for attempt in range(1, attempts + 1):
            child = self._child(slot)
            try:
                child.send(frame)
                status, value, delta = child.receive(
                    time.monotonic() + deadline)
            except _Deadline:
                self._child(slot, replace=True)
                return Outcome(
                    TIMEOUT, error=f"no result within {deadline:.1f}s "
                                   f"(worker killed and respawned)",
                    attempts=attempt, elapsed=time.monotonic() - started)
            except _Died:
                self._child(slot, replace=True)
                status, value = CRASH, "worker process died (retry exhausted)"
                continue
            if delta:
                default_registry().merge(delta)
            if status == OK:
                return Outcome(OK, value=value, attempts=attempt,
                               elapsed=time.monotonic() - started)
        return Outcome(status, error=value, attempts=attempts,
                       elapsed=time.monotonic() - started)


__all__ = ["CRASH", "ERROR", "OK", "TIMEOUT", "Outcome", "PoolClosed",
           "PoolTask", "WorkerPool"]
