"""exec-corpus: instantiate, run and report prebuilt paper analogues.

Setup compiles the 15 analogues of ``repro.workloads.programs`` under
``none -O1``, ``spatial -O1`` and ``full -O2`` (45 builds).  One lap
visits the programs in a seeded order and, for each, runs its three
builds back to back in a seeded order, so the instrumented-over-none
time ratio of a program is taken between runs seconds apart.  One
operation is ``CompiledProgram.instantiate`` -> ``Machine.run`` ->
``report_from_result`` + ``RunReport.to_json``; its exit code is checked
against the hand-written ``Workload.expected_exit``.
"""

import functools
import random
import statistics
import time

from repro.api import Toolchain, as_profile, report_from_result
from repro.workloads.programs import all_workloads

import layers
from measure import geomean, timed_median
from spans import NullRecorder, StageCounts, StageObserver

#: (profile, opt level, metric suffix); the first is the baseline.
CONFIGS = (("none", 1, "none-O1"), ("spatial", 1, "spatial-O1"),
           ("full", 2, "full-O2"))
SETUP_ROUNDS = 5
MIN_LAPS = 2


def _compile_all(trace):
    """The 45 builds, plus their static counts when tracing."""
    counts = StageCounts() if trace else None
    builds = {}
    for workload in all_workloads():
        for profile, opt, label in CONFIGS:
            observers = ()
            if counts is not None:
                observers = (StageObserver(NullRecorder(), counts, None),)
            toolchain = Toolchain(profile=profile, optimize=opt,
                                  observers=observers)
            builds[workload.name, label] = toolchain.compile(workload.source)
    return builds, counts


def run(bench):
    setup_s, (builds, counts) = timed_median(
        lambda: _compile_all(bench.trace), SETUP_ROUNDS)
    workloads = all_workloads()
    profiles = {label: as_profile(profile) for profile, _, label in CONFIGS}
    rng = random.Random(bench.seed)
    # (program, config label) -> {lap: machine.run seconds}
    run_seconds = {}
    first_stats = {}   # (program, label) -> CostStats dict of lap 0

    def do_lap(lap):
        order = list(workloads)
        rng.shuffle(order)
        for workload in order:
            configs = list(CONFIGS)
            rng.shuffle(configs)
            for _, _, label in configs:
                key = workload.name, label
                bench.attempt(lap, key, functools.partial(
                    _one_op, bench, lap, workload, label, profiles[label],
                    builds[key], run_seconds, first_stats))

    bench.run_laps(do_lap, MIN_LAPS)
    metrics = bench.common_metrics()
    metrics["setup_s"] = setup_s
    for _, _, label in CONFIGS[1:]:
        metrics[f"host_ratio.{label}"] = geomean(
            _host_ratio(run_seconds, w.name, label) for w in workloads)
        metrics[f"cost_ratio.{label}"] = geomean(
            first_stats[w.name, label]["cost"]
            / first_stats[w.name, "none-O1"]["cost"] for w in workloads)
    if bench.trace:
        metrics.update(layers.busy_metrics(bench))
        metrics.update(layers.vm_count_metrics(list(first_stats.values())))
        metrics.update(layers.instrs_per_s(bench))
        metrics.update(layers.compile_count_metrics(counts, [
            layers.certificates(build)
            for (_, label), build in builds.items() if label == "full-O2"]))
    return metrics


def _host_ratio(run_seconds, program, label):
    """Median over laps of ``label``'s run time over ``none -O1``'s."""
    base = run_seconds[program, "none-O1"]
    times = run_seconds[program, label]
    return statistics.median(times[lap] / base[lap] for lap in times)


def _one_op(bench, lap, workload, label, profile, compiled, run_seconds,
            first_stats, op_id, recorder):
    with recorder.span("vm.instantiate", op_id):
        machine = compiled.instantiate(observers=profile.make_observers())
    with recorder.span("vm.run", op_id):
        started = time.perf_counter()
        result = machine.run()
        seconds = time.perf_counter() - started
    with recorder.span("api.report", op_id):
        report = report_from_result(
            result, name=workload.name, profile=profile.name,
            engine=machine.engine_name, compiled=compiled,
            wallclock_seconds=seconds)
        row = report.to_json()
    bench.record_vm(op_id, row["stats"], seconds)

    key = workload.name, label
    run_seconds.setdefault(key, {})[lap] = seconds
    if report.trap is not None or report.exit_code != workload.expected_exit:
        bench.fail(op_id, f"{workload.name} {label}: exit "
                          f"{report.exit_code} trap {report.trap}, "
                          f"expected exit {workload.expected_exit}")
    if lap == 0:
        first_stats[key] = row["stats"]
    elif row["stats"]["cost"] != first_stats[key]["cost"]:
        bench.fail(op_id, f"{workload.name} {label}: cost "
                          f"{row['stats']['cost']} differs from lap 0's "
                          f"{first_stats[key]['cost']}")
