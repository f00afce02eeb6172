"""The differential oracle's judge, against fabricated run outcomes.

These tests build ``Outcome``-shaped results by hand so every
discrepancy kind is exercised without paying for real compiles; the
campaign test runs the genuine end-to-end article.
"""

import pytest

from repro.fuzz.oracle import (ConfigMatrix, Discrepancy, RunConfig,
                               judge_program, plan_program)
from repro.pool import Outcome
from repro.workloads.randprog import generate, generate_mutated


def ok_run(exit_code=0, output="", trap_kind=None, detected=False):
    return Outcome("ok", value={
        "status": "ok", "exit_code": exit_code, "output": output,
        "trap_kind": trap_kind, "trap": trap_kind, "detected": detected,
        "cost": 100,
    })


MATRIX = ConfigMatrix(policies=("none", "spatial", "valgrind"),
                      engines=("compiled",), opt_levels=(True,))


def configs():
    return list(MATRIX.configs())


class TestPlan:
    def test_plan_covers_the_matrix(self):
        program = generate(1)
        plan = plan_program(program, MATRIX)
        keys = [config.key for config, _ in plan]
        assert keys == ["none/compiled/O1", "spatial/compiled/O1",
                        "valgrind/compiled/O1"]
        for _, task in plan:
            assert task.args[0] == program.source

    def test_parallel_check_appends_batch_task(self):
        plan = plan_program(generate(1), MATRIX, parallel_check=True)
        assert plan[-1][0].kind == "parallel"

    def test_full_matrix_includes_none_baseline(self):
        matrix = ConfigMatrix(policies=("spatial",))
        assert matrix.policies[0] == "none"
        assert matrix.baseline.key == "none/compiled/O1"


class TestCleanJudging:
    def test_agreeing_runs_are_clean(self):
        program = generate(2)
        results = [(config, ok_run(exit_code=7, output="x"))
                   for config in configs()]
        judgment = judge_program(program, results, MATRIX)
        assert judgment.ok and judgment.verdict == "clean"

    def test_false_positive_is_transparency(self):
        program = generate(2)
        results = []
        for config in configs():
            if config.policy == "spatial":
                results.append((config, ok_run(
                    trap_kind="spatial_violation", detected=True)))
            else:
                results.append((config, ok_run(exit_code=7)))
        judgment = judge_program(program, results, MATRIX)
        kinds = [d.kind for d in judgment.discrepancies]
        assert "transparency" in kinds

    def test_baseline_divergence_is_transparency(self):
        program = generate(2)
        results = []
        for config in configs():
            exit_code = 9 if config.policy == "valgrind" else 7
            results.append((config, ok_run(exit_code=exit_code)))
        judgment = judge_program(program, results, MATRIX)
        assert judgment.verdict == "discrepancy"
        (finding,) = judgment.discrepancies
        assert finding.kind == "transparency"
        assert finding.policy == "valgrind"

    def test_timeout_and_crash_become_findings(self):
        program = generate(2)
        statuses = iter(["timeout", "crash", "ok"])
        results = []
        for config in configs():
            status = next(statuses)
            results.append((config, ok_run(exit_code=0)
                            if status == "ok"
                            else Outcome(status, error=status)))
        judgment = judge_program(program, results, MATRIX)
        kinds = sorted(d.kind for d in judgment.discrepancies)
        assert kinds == ["crash", "hang"]

    def test_resource_limit_trap_is_a_hang_finding(self):
        program = generate(2)
        results = [(config, ok_run(trap_kind="resource_limit"))
                   for config in configs()]
        judgment = judge_program(program, results, MATRIX)
        assert all(d.kind == "hang" for d in judgment.discrepancies)

    def test_infra_error_is_not_a_discrepancy(self):
        program = generate(2)
        results = [(config, ok_run(exit_code=3)) for config in configs()]
        results[1] = (results[1][0],
                      Outcome("error", error=RuntimeError("flake")))
        judgment = judge_program(program, results, MATRIX)
        assert judgment.verdict == "infra"
        assert not judgment.discrepancies

    def test_parallel_divergence(self):
        program = generate(2)
        results = [(config, ok_run(exit_code=1)) for config in configs()]
        batch = RunConfig("batch", "compiled", True, kind="parallel")
        results.append((batch, Outcome("ok", value={
            "status": "ok", "trap_kind": None,
            "equal": False, "detail": "spatial: cost differs"})))
        judgment = judge_program(program, results, MATRIX)
        (finding,) = judgment.discrepancies
        assert finding.kind == "parallel_divergence"


class TestMutatedJudging:
    def make_results(self, spatial_detects):
        # "spatial" declares stack_overflow; "none" and "valgrind" don't.
        results = []
        for config in configs():
            if config.policy == "spatial" and spatial_detects:
                results.append((config, ok_run(
                    trap_kind="spatial_violation", detected=True)))
            else:
                results.append((config, ok_run(exit_code=7)))
        return results

    def test_declared_and_detected_is_clean(self):
        program = generate_mutated(3, defect="off_by_one_index")
        assert program.expected_class == "stack_overflow"
        judgment = judge_program(program, self.make_results(True), MATRIX)
        assert judgment.ok

    def test_missed_detection_names_a_reference(self):
        program = generate_mutated(3, defect="off_by_one_index")
        results = []
        for config in configs():
            if config.policy == "valgrind":
                # valgrind does NOT declare stack_overflow yet detects
                # here — it becomes the reference for spatial's miss.
                results.append((config, ok_run(
                    trap_kind="spatial_violation", detected=True)))
            else:
                results.append((config, ok_run(exit_code=7)))
        judgment = judge_program(program, results, MATRIX)
        kinds = {d.kind: d for d in judgment.discrepancies}
        assert "missed_detection" in kinds
        assert kinds["missed_detection"].policy == "spatial"
        assert kinds["missed_detection"].reference_policy == "valgrind"
        assert "undeclared_detection" in kinds

    def test_miss_without_reference_still_reported(self):
        program = generate_mutated(3, defect="off_by_one_index")
        judgment = judge_program(program, self.make_results(False), MATRIX)
        (finding,) = judgment.discrepancies
        assert finding.kind == "missed_detection"
        assert finding.reference_policy is None
        assert finding.expected_class == "stack_overflow"


class TestConsistency:
    def test_cross_engine_disagreement_is_divergence(self):
        matrix = ConfigMatrix(policies=("none", "spatial"),
                              engines=("compiled", "interp"),
                              opt_levels=(True,))
        program = generate(4)
        results = []
        for config in matrix.configs():
            exit_code = 5 if (config.policy, config.engine) == \
                ("spatial", "interp") else 3
            results.append((config, ok_run(exit_code=exit_code)))
        judgment = judge_program(program, results, matrix)
        kinds = {d.kind for d in judgment.discrepancies}
        assert "divergence" in kinds
        divergence = next(d for d in judgment.discrepancies
                          if d.kind == "divergence")
        assert divergence.policy == "spatial"
        assert len(divergence.configs) == 2

    def test_trap_runs_compared_on_kind_only(self):
        # Same trap kind with different residual exit codes must NOT
        # count as divergence — check motion may move where an expected
        # trap fires, never whether or what kind.
        matrix = ConfigMatrix(policies=("none", "temporal"),
                              engines=("compiled", "interp"),
                              opt_levels=(True,))
        program = generate_mutated(4, defect="use_after_free")
        results = []
        for exit_code, config in enumerate(matrix.configs()):
            if config.policy == "temporal":
                results.append((config, ok_run(
                    exit_code=exit_code, trap_kind="temporal_violation",
                    detected=True)))
            else:
                results.append((config, ok_run(exit_code=9)))
        judgment = judge_program(program, results, matrix)
        assert judgment.ok, judgment.discrepancies


class TestDiscrepancySerialization:
    def test_round_trip(self):
        original = Discrepancy(
            kind="missed_detection", detail="d", configs=("a/b/O1",),
            policy="spatial", expected_class="heap_overflow",
            reference_policy="temporal")
        assert Discrepancy.from_json(original.to_json()) == original
