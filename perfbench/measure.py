"""What every workload shares: the lap loop, the per-run record of
operations and failures, and the statistics the metrics are made of.

A *lap* is one pass over a workload's seeded input set.  A run measures
whole laps only, so every input is weighted equally whatever the run
length.  It starts another lap while the run's time would end within
half a lap of ``--seconds``, and always runs at least ``min_laps``.

In a traced run the laps alternate: even laps record spans, odd laps do
not.  Per-layer times come from the traced laps; the odd laps give the
untraced rate the tracing overhead is measured against.

``latency_ms_p90`` is taken over every measured op, pooled, so it is the
tail of single ops.  ``latency_ms_p50`` is the median over inputs of each
input's mean latency over the run's laps: the time of one serve request
is bimodal (about 4 or 15 ms, at random for the same request), and a
pooled median lands between the two modes and jumps with their mix.
With one client, ``ops_per_s`` is a lap's inputs over the sum of the
per-input means, so every input weighs the same whatever the host's
speed drift does to single ops; with several concurrent clients it is
the median lap's rate.

The program's own garbage collector runs as it would in any long-lived
process: the benchmark collects once, before the first lap, so that the
laps do not pay for set-up's garbage.  How much memory the collector
leaves in use at its peak depends on where in a lap its full collections
fall, so ``peak_rss_mb`` is the mean over the untraced laps of each
lap's peak resident memory.
"""

import gc
import itertools
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from spans import NullRecorder, SpanRecorder


@dataclass
class Op:
    """One completed operation."""

    op_id: int
    lap: int
    traced: bool
    seconds: float
    #: The input the op worked on; ops of one key repeat across laps.
    key: object = None


@dataclass
class Run:
    """The state of one benchmark run."""

    seed: int
    seconds: float
    trace: bool
    workdir: str
    #: Ops come from several client threads at once.
    concurrent: bool = False
    #: The processes whose resident memory ``peak_rss_mb`` sums.
    rss_pids: tuple = ("self",)
    recorder: object = field(init=False)
    ops: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    lap_seconds: dict = field(default_factory=dict)  # lap -> wall seconds
    lap_peak_mb: dict = field(default_factory=dict)  # lap -> peak RSS MiB
    vm_runs: dict = field(default_factory=dict)  # op -> (instrs, seconds)

    def __post_init__(self):
        self.recorder = SpanRecorder() if self.trace else NullRecorder()
        self._null = NullRecorder()
        self._op_ids = itertools.count(1)

    def attempt(self, lap, key, action):
        """Run and time one operation on input ``key``,
        ``action(op_id, recorder)``.

        An exception from the program under test fails the op and the
        run goes on."""
        op_id = next(self._op_ids)
        recorder = self.recorder_for(lap)
        started = time.perf_counter()
        try:
            with recorder.span("op", op_id):
                action(op_id, recorder)
        except Exception as error:  # noqa: BLE001 — counted, run goes on
            traceback.print_exc(file=sys.stderr)
            self.fail(op_id, f"{type(error).__name__}: {error}")
        self.ops.append(Op(op_id, lap, self.lap_traced(lap),
                           time.perf_counter() - started, key))

    def lap_traced(self, lap):
        return self.trace and lap % 2 == 0

    def recorder_for(self, lap):
        return self.recorder if self.lap_traced(lap) else self._null

    def fail(self, op_id, message):
        self.failures.append((op_id, message))

    def record_vm(self, op_id, stats, seconds):
        self.vm_runs[op_id] = (stats["instructions"], seconds)

    def run_laps(self, do_lap, min_laps=1):
        """Call ``do_lap(lap)`` for whole laps until ``seconds`` is
        spent (see the module docstring)."""
        if self.trace:
            min_laps = max(min_laps, 2)
        gc.collect()
        started = time.perf_counter()
        lap = 0
        while True:
            reset_peak_rss(self.rss_pids)
            lap_start = time.perf_counter()
            do_lap(lap)
            now = time.perf_counter()
            self.lap_seconds[lap] = now - lap_start
            self.lap_peak_mb[lap] = peak_rss_mb(self.rss_pids)
            lap += 1
            if lap >= min_laps and \
                    (now - started) + 0.5 * self.lap_seconds[lap - 1] \
                    > self.seconds:
                return

    # -- the shared end-to-end and tracing metrics ----------------------

    def ops_in(self, traced):
        return [op for op in self.ops if op.traced == traced]

    def rate_and_means(self, traced):
        """``(ops per second, per-input mean latencies in ms)`` of the
        traced or the untraced ops (see the module docstring)."""
        ops = self.ops_in(traced)
        by_key = {}
        for op in ops:
            by_key.setdefault(op.key, []).append(op.seconds)
        means = [statistics.fmean(times) * 1000.0
                 for times in by_key.values()]
        if not self.concurrent:
            return len(means) * 1000.0 / sum(means), means
        laps = {}
        for op in ops:
            laps[op.lap] = laps.get(op.lap, 0) + 1
        rate = statistics.median(count / self.lap_seconds[lap]
                                 for lap, count in laps.items())
        return rate, means

    def common_metrics(self):
        """ops_per_s, latency percentiles and peak_rss_mb over the
        untraced laps, plus the tracing overhead of a traced run."""
        rate, means = self.rate_and_means(False)
        metrics = {
            "ops_per_s": rate,
            "latency_ms_p50": statistics.median(means),
            "latency_ms_p90": percentile(
                [op.seconds * 1000.0 for op in self.ops_in(False)], 90),
            "peak_rss_mb": statistics.fmean(
                peak for lap, peak in self.lap_peak_mb.items()
                if not self.lap_traced(lap)),
        }
        if self.trace:
            traced, _ = self.rate_and_means(True)
            metrics["trace.ops_per_s"] = traced
            metrics["trace.overhead_ratio"] = rate / traced
        return metrics

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed_ops(self):
        return len({op_id for op_id, _ in self.failures})


def percentile(values, q):
    """The q-th percentile (inclusive linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def reset_peak_rss(pids):
    """Restart the kernel's peak resident memory count (VmHWM) of each
    process."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")
        except FileNotFoundError:
            pass  # the process has exited


def peak_rss_mb(pids):
    """Summed peak resident memory (VmHWM) of the processes, MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except FileNotFoundError:
            pass
    return total_kib / 1024.0


def timed_median(action, times):
    """Run ``action()`` ``times`` times; returns (median seconds, last
    result).  Each run starts after a full collection, so none pays for
    collecting the garbage of the one before."""
    durations = []
    result = None
    for _ in range(times):
        gc.collect()
        started = time.perf_counter()
        result = action()
        durations.append(time.perf_counter() - started)
    return statistics.median(durations), result
