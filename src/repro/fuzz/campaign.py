"""The campaign driver: generate → execute → judge → checkpoint →
minimize, under a wallclock budget, surviving everything.

A campaign walks a deterministic seed plan — each seed index yields one
clean program and one mutated program (defect classes cycle) — and for
each un-judged seed runs the full differential matrix inside the
crash-isolated pool, judges the outcomes, checkpoints the verdict to
the corpus (atomically, per seed), and delta-minimizes any discrepancy
into a findings case.  Because every judged seed hits disk before the
next one starts, ``kill -9`` at any point loses at most the in-flight
seed; ``--resume`` skips everything already judged.

Chaos mode front-loads fault-injection tasks (a hung task, a worker
SIGKILL that heals on retry, an in-band flake) through the same pool to
prove the robustness layer end-to-end before any real fuzzing happens.
"""

import itertools
import os
import time
from dataclasses import dataclass, field

from ..obs import obs_enabled
from ..obs.metrics import default_registry, snapshot_delta
from ..obs.trace import tracer
from ..pool import PoolTask, WorkerPool
from ..workloads import randprog
from .corpus import Corpus
from .minimize import minimize, predicate_for
from .oracle import ConfigMatrix, judge_program, plan_program

#: Minimize at most this many discrepancies per seed — one reproducer
#: per root cause is plenty; the rest are recorded in the checkpoint.
MAX_MINIMIZE_PER_SEED = 2


@dataclass
class CampaignConfig:
    """Knobs for one campaign run."""

    corpus: str
    seeds: int = 25                  # seed indices; each yields 2 programs
    start_seed: int = 0
    time_budget: float = None        # wallclock seconds, None = unbounded
    jobs: int = 2
    task_timeout: float = 60.0
    max_statements: int = 10
    matrix: ConfigMatrix = None      # default: ConfigMatrix.full()
    minimize: bool = True
    minimize_tests: int = 300
    chaos: bool = False
    resume: bool = True              # skip seeds already in the corpus


@dataclass
class CampaignResult:
    """What a campaign did, for reporting and exit codes."""

    #: The count fields below are derived from the shared obs metrics
    #: registry at the end of :meth:`Campaign.run` (the registry is the
    #: source of truth); they are kept as compatibility aliases.
    judged: int = 0
    skipped: int = 0
    clean: int = 0
    discrepancy_seeds: int = 0
    infra_seeds: int = 0
    findings: list = field(default_factory=list)   # case.json paths
    chaos: dict = field(default_factory=dict)
    stopped: str = "seeds_exhausted"               # or "time_budget"
    elapsed: float = 0.0
    #: The repro_fuzz_* registry delta for this run (only populated —
    #: and only emitted by to_json — when observability is enabled).
    metrics: dict = None

    @property
    def exit_code(self):
        return 1 if (self.discrepancy_seeds or self.infra_seeds
                     or self.chaos.get("failed")) else 0

    def to_json(self):
        row = {
            "judged": self.judged,
            "skipped": self.skipped,
            "clean": self.clean,
            "discrepancy_seeds": self.discrepancy_seeds,
            "infra_seeds": self.infra_seeds,
            "findings": list(self.findings),
            "chaos": self.chaos,
            "stopped": self.stopped,
            "elapsed": round(self.elapsed, 2),
            "exit_code": self.exit_code,
        }
        if self.metrics is not None:
            row["metrics"] = self.metrics
        return row


def seed_plan(config):
    """The deterministic (seed_key, builder) schedule: for each index,
    one clean program then one mutated program with a cycling defect."""
    defect_names = list(randprog.DEFECTS)
    for offset in range(config.seeds):
        index = config.start_seed + offset
        yield (f"clean:{index}",
               lambda index=index: randprog.generate(
                   index, max_statements=config.max_statements))
        defect = defect_names[index % len(defect_names)]
        yield (f"{defect}:{index}",
               lambda index=index, defect=defect: randprog.generate_mutated(
                   index, defect=defect,
                   max_statements=config.max_statements))


class Campaign:
    """One fuzzing campaign over a corpus directory."""

    def __init__(self, config, log=None):
        self.config = config
        self.matrix = config.matrix or ConfigMatrix.full()
        self.corpus = Corpus(config.corpus)
        self.log = log or (lambda message: None)

    def run(self):
        config = self.config
        result = CampaignResult()
        started = time.monotonic()
        # The shared obs registry is the campaign's single source of
        # truth for seed tallies; the CampaignResult count fields are
        # derived from its delta at the end (compat aliases).
        registry = default_registry()
        before = self._fuzz_series(registry)

        def out_of_time():
            return (config.time_budget is not None
                    and time.monotonic() - started >= config.time_budget)

        with WorkerPool(workers=config.jobs,
                        deadline=config.task_timeout) as pool:
            if config.chaos:
                result.chaos = self._run_chaos(pool)
                status = "ok" if not result.chaos.get("failed") else "FAILED"
                self.log(f"chaos drill: {status} {result.chaos}")

            clean_counter = itertools.count()
            for seed_key, build in seed_plan(config):
                if out_of_time():
                    result.stopped = "time_budget"
                    break
                if config.resume and self.corpus.is_judged(seed_key):
                    registry.counter("repro_fuzz_skipped_total").inc()
                    continue
                span = tracer().start_span("fuzz.seed", seed=seed_key)
                program = build()
                sha = self.corpus.add_program(program.source)
                is_clean = seed_key.startswith("clean:")
                parallel_check = (
                    is_clean and self.matrix.parallel_every
                    and next(clean_counter) % self.matrix.parallel_every == 0)
                plan = plan_program(program, self.matrix,
                                    parallel_check=parallel_check)
                outcomes = pool.run([task for _, task in plan])
                judgment = judge_program(
                    program,
                    list(zip((cfg for cfg, _ in plan), outcomes)),
                    self.matrix)
                self.corpus.record(seed_key, judgment, sha, extra={
                    "defect": getattr(program, "defect", None),
                    "expected_class": getattr(program, "expected_class",
                                              None),
                })
                if judgment.verdict == "clean":
                    verdict = "clean"
                elif judgment.verdict == "infra":
                    verdict = "infra"
                    self.log(f"{seed_key}: INFRA {judgment.infra}")
                else:
                    verdict = "discrepancy"
                    kinds = sorted({d.kind
                                    for d in judgment.discrepancies})
                    self.log(f"{seed_key}: DISCREPANCY {kinds} "
                             f"({len(judgment.discrepancies)} total)")
                    if config.minimize:
                        self._minimize_findings(
                            pool, seed_key, program, judgment, result)
                registry.counter("repro_fuzz_seeds_total",
                                 {"verdict": verdict}).inc()
                span.finish(verdict=verdict)

        result.elapsed = time.monotonic() - started
        delta = snapshot_delta(before, self._fuzz_series(registry))
        result.clean = delta.get(
            "repro_fuzz_seeds_total{verdict=clean}", 0)
        result.infra_seeds = delta.get(
            "repro_fuzz_seeds_total{verdict=infra}", 0)
        result.discrepancy_seeds = delta.get(
            "repro_fuzz_seeds_total{verdict=discrepancy}", 0)
        result.judged = (result.clean + result.infra_seeds
                         + result.discrepancy_seeds)
        result.skipped = delta.get("repro_fuzz_skipped_total", 0)
        if obs_enabled():
            result.metrics = delta
        return result

    @staticmethod
    def _fuzz_series(registry):
        return {key: value for key, value in registry.snapshot().items()
                if key.startswith("repro_fuzz_")}

    # -- minimization --------------------------------------------------

    def _minimize_findings(self, pool, seed_key, program, judgment, result):
        for discrepancy in judgment.discrepancies[:MAX_MINIMIZE_PER_SEED]:
            predicate = predicate_for(
                discrepancy, pool=pool,
                timeout=self.config.task_timeout)
            if predicate is None:
                minimized = program.source  # archived unshrunk
                shrunk = None
            else:
                shrunk = minimize(program.source, predicate,
                                  max_tests=self.config.minimize_tests)
                minimized = shrunk.source
            finding_id = "-".join(filter(None, (
                discrepancy.kind, discrepancy.policy,
                seed_key.replace(":", "-"))))
            case_dir = self.corpus.add_finding(
                finding_id, discrepancy, program.source, minimized,
                seed_key, extra={
                    "defect": getattr(program, "defect", None),
                    "minimize_steps": shrunk.steps if shrunk else 0,
                    "minimize_tests": shrunk.tests if shrunk else 0,
                    "reproduced": shrunk.reproduced if shrunk else False,
                })
            result.findings.append(case_dir)
            default_registry().counter("repro_fuzz_findings_total").inc()
            lines = minimized.count("\n")
            self.log(f"  minimized -> {os.path.basename(case_dir)} "
                     f"({program.source.count(chr(10))} -> {lines} lines)")

    # -- chaos ---------------------------------------------------------

    def _run_chaos(self, pool):
        """Push the robustness layer through its three failure modes
        with fault-injection tasks; returns a summary dict with
        ``failed`` listing any verdict that came back wrong."""
        import tempfile

        marker_dir = tempfile.mkdtemp(prefix="repro-fuzz-chaos-")
        kill_marker = os.path.join(marker_dir, "kill-once")
        flake_marker = os.path.join(marker_dir, "flaky-once")
        tasks = [
            PoolTask("repro.harness.faults:hang", (3600.0,), deadline=1.5),
            PoolTask("repro.harness.faults:kill_self_once", (kill_marker,)),
            PoolTask("repro.harness.faults:flaky_once", (flake_marker,)),
            PoolTask("repro.harness.faults:echo", ("alive",)),
        ]
        outcomes = pool.run(tasks)
        expectations = [
            ("hung task", outcomes[0].status == "timeout"),
            ("killed worker retried",
             outcomes[1].ok and outcomes[1].value == "recovered"
             and outcomes[1].attempts == 2),
            ("in-band flake retried",
             outcomes[2].ok and outcomes[2].value == "recovered"
             and outcomes[2].attempts == 2),
            ("pool still serving", outcomes[3].ok
             and outcomes[3].value == "alive"),
        ]
        failed = [name for name, held in expectations if not held]
        return {
            "verdicts": [outcome.status for outcome in outcomes],
            "attempts": [outcome.attempts for outcome in outcomes],
            "failed": failed,
        }
