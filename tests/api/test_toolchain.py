"""Staged-pipeline tests: stage ordering, observer hooks, artifacts."""

from repro.api import STAGES, Toolchain, ToolchainObserver, compile_source
from repro.frontend import ast_nodes as ast

PROGRAM = r'''
int main(void) {
    int a[8];
    for (int i = 0; i < 8; i++) a[i] = i * 2;
    return a[7];
}
'''


class RecordingObserver(ToolchainObserver):
    def __init__(self):
        self.events = []

    def before_stage(self, stage, payload):
        self.events.append(("before", stage))

    def after_stage(self, stage, artifact):
        self.events.append(("after", stage))


class TestStages:
    def test_stage_names_in_order(self):
        assert STAGES == ("parse", "typecheck", "lower", "optimize",
                          "instrument", "post-optimize")

    def test_unprotected_compile_skips_instrumentation_stages(self):
        observer = RecordingObserver()
        Toolchain(observers=(observer,)).compile(PROGRAM)
        stages = [s for kind, s in observer.events if kind == "before"]
        assert stages == ["parse", "typecheck", "lower", "optimize"]

    def test_protected_compile_runs_all_six(self):
        observer = RecordingObserver()
        Toolchain(profile="spatial", observers=(observer,)).compile(PROGRAM)
        stages = [s for kind, s in observer.events if kind == "before"]
        assert stages == list(STAGES)

    def test_hooks_bracket_each_stage(self):
        observer = RecordingObserver()
        Toolchain(profile="spatial", observers=(observer,)).compile(PROGRAM)
        for i in range(0, len(observer.events), 2):
            before, after = observer.events[i], observer.events[i + 1]
            assert before == ("before", after[1])

    def test_optimize_false_skips_optimize_stage(self):
        observer = RecordingObserver()
        Toolchain(optimize=False, observers=(observer,)).compile(PROGRAM)
        stages = [s for kind, s in observer.events if kind == "before"]
        assert stages == ["parse", "typecheck", "lower"]


class TestArtifacts:
    def test_every_run_intermediate_is_retrievable(self):
        toolchain = Toolchain(profile="spatial")
        compiled = toolchain.compile(PROGRAM)
        artifacts = toolchain.artifacts
        assert artifacts["parse"]["tokens"], "token stream retrievable"
        assert isinstance(artifacts["parse"]["ast"], ast.TranslationUnit)
        assert artifacts["typecheck"]["program"].functions["main"]
        assert artifacts["lower"]["module"] is compiled.module
        assert artifacts["optimize"]["pass_stats"] is compiled.pass_stats
        assert artifacts["post-optimize"]["check_opt_stats"] \
            is compiled.check_opt_stats
        assert set(toolchain.stage_seconds) == set(artifacts)

    def test_artifacts_reset_per_compile(self):
        toolchain = Toolchain()
        toolchain.compile(PROGRAM)
        first = toolchain.artifacts
        toolchain.compile("int main(void) { return 1; }")
        assert toolchain.artifacts is not first
        assert toolchain.artifacts["lower"]["module"] \
            is not first["lower"]["module"]


class TestEquivalenceWithLegacyDriver:
    def test_compile_source_matches_compile_program(self):
        """A raw SoftBoundConfig builds exactly what the registered
        profile of the same config builds."""
        from repro.softbound.config import FULL_SHADOW

        raw = compile_source(PROGRAM, profile=FULL_SHADOW)
        facade = compile_source(PROGRAM, profile="spatial")
        assert raw.pass_stats == facade.pass_stats
        assert raw.check_opt_stats == facade.check_opt_stats
        raw_result = raw.run()
        facade_result = facade.run()
        assert raw_result.exit_code == facade_result.exit_code
        assert raw_result.stats.cost == facade_result.stats.cost

    def test_unit_mode_matches_legacy_compile_module(self):
        from repro.harness.linker import compile_module
        from repro.ir.printer import format_module

        library = "int helper(int x) { return x + 1; }"
        legacy = compile_module(library, name="lib")
        unit = Toolchain(unit_mode=True).compile(library, name="lib")
        assert format_module(legacy) == format_module(unit)
