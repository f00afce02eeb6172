"""check-stream: check programs no cache has seen.

Setup generates a pool of programs from ``randprog.generate`` (clean)
and ``randprog.generate_mutated`` (one spatial or one temporal defect),
a third of each kind, in blocks, each slot with a seeded profile:
``spatial -O1`` or ``full -O2``.  For every clean program it computes the reference exit
code and output with an independent build: ``none``, ``-O0``, on the
``interp`` engine.

One operation is the sequence ``Session.run`` performs on a miss,
issued as public calls so each is timed: ``ArtifactStore.load`` (a
miss), the six toolchain stages, ``ArtifactStore.save``, then
``instantiate`` -> ``Machine.run`` -> ``report_from_result`` +
``to_json``.  Each lap checks the whole pool, in a seeded order, against
a fresh ``ArtifactStore``, so every lookup misses and every compile
writes the store.
"""

import functools
import os
import random
import time

from repro.api import Toolchain, as_profile, report_from_result
from repro.policy.registry import get_policy
from repro.store import ArtifactStore
from repro.vm.errors import TrapKind
from repro.workloads import randprog

import layers
from measure import timed_median
from spans import StageCounts, StageObserver

BLOCKS = 8
BLOCK_SIZE = 24
CONFIGS = (("spatial", 1), ("full", 2))
KINDS = ("clean", "spatial", "temporal")
MIN_LAPS = 2

#: The trap a detected defect of each violation class must raise.
TRAP_FOR_CLASS = {
    "stack_overflow": TrapKind.SPATIAL_VIOLATION,
    "heap_overflow": TrapKind.SPATIAL_VIOLATION,
    "subobject_overflow": TrapKind.SPATIAL_VIOLATION,
    "use_after_free": TrapKind.TEMPORAL_VIOLATION,
    "double_free": TrapKind.TEMPORAL_VIOLATION,
    "dangling_stack": TrapKind.TEMPORAL_VIOLATION,
}


class Slot:
    """One program of the pool, its profile and what it must do."""

    def __init__(self, rng, kind):
        program_seed = rng.getrandbits(31)
        self.kind = kind
        profile, self.opt = rng.choice(CONFIGS)
        self.profile = as_profile(profile)
        if self.kind == "clean":
            program = randprog.generate(program_seed)
            self.expected_class = None
        else:
            defects = (randprog.SPATIAL_DEFECTS if self.kind == "spatial"
                       else randprog.TEMPORAL_DEFECTS)
            program = randprog.generate_mutated(
                program_seed, defect=rng.choice(defects))
            self.expected_class = program.expected_class
        self.name = f"{self.kind}-{program_seed}"
        self.source = program.source
        self.reference = None  # (exit code, output) for clean programs

    def compute_reference(self):
        reference = Toolchain(profile="none", optimize=0).compile(self.source)
        result = reference.instantiate(engine="interp").run()
        if result.trap is not None:
            raise RuntimeError(f"reference run of {self.name} trapped: "
                               f"{result.trap}")
        self.reference = (result.exit_code, result.output)


def _make_block(rng):
    # A third of each kind in every block, so the seed does not change
    # how many reference runs a block needs.
    block = [Slot(rng, KINDS[index % len(KINDS)])
             for index in range(BLOCK_SIZE)]
    for slot in block:
        if slot.kind == "clean":
            slot.compute_reference()
    return block


def check(slot, report):
    """None if ``report`` is the right outcome for ``slot``, else why not."""
    if slot.kind == "clean":
        if report.trap is not None:
            return f"trapped on a clean program: {report.trap}"
        if (report.exit_code, report.output) != slot.reference:
            return (f"exit {report.exit_code} / output differs from the "
                    f"reference (exit {slot.reference[0]})")
        return None
    declared = slot.expected_class in get_policy(slot.profile.name).detects
    detected = report.detected_violation
    if declared and not detected:
        return f"missed a declared {slot.expected_class}: {report.trap}"
    if not declared and detected:
        return f"detected undeclared {slot.expected_class}: {report.trap}"
    expected_kind = TRAP_FOR_CLASS[slot.expected_class]
    if declared and report.trap.kind != expected_kind:
        return (f"{slot.expected_class} raised {report.trap_kind}, not "
                f"{expected_kind.value}")
    return None


def run(bench):
    rng = random.Random(bench.seed)
    pool = []
    setup_s, _ = timed_median(lambda: pool.extend(_make_block(rng)), BLOCKS)

    counts = StageCounts()
    tally = {"hits": 0, "misses": 0}
    first_lap = {}   # op id -> (CostStats dict, -O2 certificates or None)

    def do_lap(lap):
        store = ArtifactStore(os.path.join(bench.workdir, f"store-{lap}"))
        order = list(pool)
        if lap:
            rng.shuffle(order)
        for slot in order:
            bench.attempt(lap, slot, functools.partial(
                _one_op, bench, lap, slot, store, counts, tally,
                first_lap))

    bench.run_laps(do_lap, MIN_LAPS)
    metrics = bench.common_metrics()
    metrics["setup_s"] = setup_s
    if bench.trace:
        ops = len(first_lap)
        metrics.update(layers.busy_metrics(bench))
        metrics.update(layers.vm_count_metrics(
            [stats for stats, _ in first_lap.values()]))
        metrics.update(layers.instrs_per_s(bench))
        metrics.update(layers.compile_count_metrics(
            counts, [certificates for _, certificates in first_lap.values()
                     if certificates is not None]))
        metrics["store.hits"] = tally["hits"] / ops
        metrics["store.misses"] = tally["misses"] / ops
    return metrics


def _one_op(bench, lap, slot, store, counts, tally, first_lap, op_id,
            recorder):
    profile = slot.profile
    with recorder.span("store.load", op_id):
        compiled = store.load(slot.source, profile, slot.opt)
    if lap == 0:
        tally["hits" if compiled is not None else "misses"] += 1
    if compiled is None:
        observers = ()
        if recorder.enabled:
            # Counts are kept for lap 0 only; later traced laps count
            # too, so that every traced lap carries the same overhead.
            observers = (StageObserver(
                recorder, counts if lap == 0 else StageCounts(), op_id),)
        with recorder.span("compile", op_id):
            compiled = Toolchain(profile=profile, optimize=slot.opt,
                                 observers=observers).compile(slot.source)
        with recorder.span("store.save", op_id):
            store.save(slot.source, profile, slot.opt, compiled)
    with recorder.span("vm.instantiate", op_id):
        machine = compiled.instantiate(observers=profile.make_observers())
    with recorder.span("vm.run", op_id):
        started = time.perf_counter()
        result = machine.run()
        seconds = time.perf_counter() - started
    with recorder.span("api.report", op_id):
        report = report_from_result(
            result, name=slot.name, profile=profile.name,
            engine=machine.engine_name, compiled=compiled,
            wallclock_seconds=seconds)
        row = report.to_json()
    bench.record_vm(op_id, row["stats"], seconds)
    if lap == 0:
        first_lap[op_id] = (row["stats"], layers.certificates(compiled)
                            if slot.opt == 2 else None)
    problem = check(slot, report)
    if problem is not None:
        bench.fail(op_id, f"{slot.name} {profile.name} -O{slot.opt}: "
                          f"{problem}")
