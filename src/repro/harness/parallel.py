"""Worker-pool fan-out for the workload×scheme evaluation matrix.

``python -m repro tables`` re-runs every workload under every
configuration, plus the attack, BugBench and server sweeps — dozens of
independent compile+run jobs that share nothing but code.  This module
fans them out over the crash-isolated :class:`repro.pool.WorkerPool`
(``--jobs N`` / ``REPRO_JOBS``) while keeping the output *bit-identical*
to a serial run:

* the task list is built in a fixed order and the pool's batch face
  returns outcomes in that order — rendering never observes scheduling;
* each task is a pure function of its ``(kind, name, config)``
  descriptor: workers recompute from source and return plain picklable
  results (measurements, detection tuples), which the parent uses to
  seed the same in-process caches a serial run fills lazily;
* every simulated machine is deterministic (the cost model has no
  wall-clock inputs), so a result computed in a worker is the result
  the parent would have computed itself.

Task kinds are dispatched by :func:`execute_task`; the table renderers'
cache-seeding lives in :mod:`repro.harness.tables` (``prewarm``).

Robustness is the pool's outcome rule: a task past its wallclock
deadline is killed and not retried, a task that kills its worker or
raises is retried once, and :func:`run_tasks` raises
:class:`ParallelTaskError` naming every task that still failed.
"""

import os

from ..obs.metrics import default_registry
from ..obs.trace import tracer

#: Per-task wallclock deadline for pool fan-out; generous because
#: matrix tasks compile + simulate whole benchmarks.  Override with
#: ``REPRO_TASK_TIMEOUT`` (seconds) or the ``task_timeout`` argument.
DEFAULT_TASK_TIMEOUT = 600.0


class ParallelTaskError(RuntimeError):
    """Raised when tasks still fail after the retry budget.

    ``failures`` is a list of ``(index, task, reason)`` tuples — the
    position in the submitted task list, the task descriptor, and a
    string (or exception) saying what happened on the final attempt.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        summary = "; ".join(
            f"task[{index}] {task[0] if isinstance(task, tuple) else task}: "
            f"{reason}" for index, task, reason in self.failures[:5])
        extra = len(self.failures) - 5
        if extra > 0:
            summary += f"; (+{extra} more)"
        super().__init__(
            f"{len(self.failures)} parallel task(s) failed after "
            f"retry: {summary}")


def resolve_jobs(jobs=None):
    """Effective worker count — delegates to the centralized
    :func:`repro.api.resolve_jobs` (flag > ``REPRO_JOBS`` > serial)."""
    from ..api.env import resolve_jobs as _resolve_jobs

    return _resolve_jobs(jobs)


def execute_task(task):
    """Run one matrix task; returns its picklable result.

    Kinds:

    * ``("measure", workload_name, config_or_None)`` →
      :class:`~repro.harness.stats.WorkloadMeasurement`
    * ``("attack", attack_name)`` → ``(exploited, full, store)`` bools
    * ``("bug", bug_name)`` → ``(valgrind, mudflap, store, full)`` bools
    * ``("temporal", attack_name)`` →
      ``(exploited, spatial_outcome, temporal_detected)``
    * ``("server", server_name, config)`` →
      ``(trap_str_or_None, output_identical)``
    * ``("api_run", run_request)`` →
      :class:`~repro.api.reports.RunReport` (the
      :meth:`repro.api.Session.run_many` batch item)
    """
    kind = task[0]
    if kind == "py":
        # ("py", "module:attr", *args) — a generic picklable call, for
        # tooling and the robustness tests (hooks must be importable).
        from ..pool import resolve

        return resolve(task[1])(*task[2:])
    if kind == "api_run":
        from ..api.session import execute_run_request

        return execute_run_request(task[1])
    if kind == "measure":
        from .stats import measure

        return measure(task[1], task[2])
    if kind == "attack":
        from . import tables

        return tables.attack_detection(task[1])
    if kind == "bug":
        from . import tables

        return tables.bug_detection(task[1])
    if kind == "temporal":
        from . import tables

        return tables.temporal_attack_detection(task[1])
    if kind == "server":
        from . import tables

        return tables.server_outcome(task[1], task[2])
    raise ValueError(f"unknown task kind {kind!r}")


def _task_label(task):
    return task[0] if isinstance(task, tuple) and task else str(task)


def traced_execute(task):
    """:func:`execute_task` inside a ``task.<kind>`` span (a no-op span
    when tracing is off); the pool workers' entry point."""
    with tracer().span("task." + _task_label(task)):
        return execute_task(task)


def run_tasks(tasks, jobs, task_timeout=None, retries=1):
    """Execute ``tasks``, fanning out over ``jobs`` worker processes;
    the result list is index-aligned with ``tasks`` (deterministic
    order).

    Each task attempt has a wallclock deadline (``task_timeout``,
    ``REPRO_TASK_TIMEOUT``, or :data:`DEFAULT_TASK_TIMEOUT`).  A task
    that crashes its worker or raises is retried up to ``retries``
    times; one that times out is not.  Tasks still failing raise
    :class:`ParallelTaskError` listing every failure.  Serial execution
    (``jobs <= 1``) is untouched — failures propagate raw, timeouts
    don't apply.  Worker metrics merge into this process's registry
    when observability is on.
    """
    from ..pool import CRASH, ERROR, WorkerPool

    tasks = list(tasks)
    registry = default_registry()
    registry.counter("repro_pool_tasks_total").inc(len(tasks))
    if jobs <= 1 or len(tasks) <= 1:
        return [traced_execute(task) for task in tasks]
    if task_timeout is None:
        task_timeout = float(os.environ.get("REPRO_TASK_TIMEOUT",
                                            DEFAULT_TASK_TIMEOUT))
    call = "repro.harness.parallel:traced_execute"
    with WorkerPool(workers=min(jobs, len(tasks)), deadline=task_timeout,
                    retries=retries) as pool:
        outcomes = pool.run([(call, (task,)) for task in tasks])
    retried = sum(outcome.attempts - 1 for outcome in outcomes)
    if retried:
        registry.counter("repro_pool_retries_total").inc(retried)
    failures = []
    for index, (task, outcome) in enumerate(zip(tasks, outcomes)):
        if outcome.status == ERROR:
            failures.append((index, task, outcome.error))
        elif outcome.status == CRASH:
            failures.append((index, task, "worker process died"))
        elif not outcome.ok:
            failures.append((index, task,
                             f"no result within {task_timeout:.0f}s"))
    if failures:
        registry.counter("repro_pool_failures_total").inc(len(failures))
        raise ParallelTaskError(failures)
    return [outcome.value for outcome in outcomes]
