"""Guarded loop-versioned check widening."""

from dataclasses import replace

from repro.api import compile_source
from repro.softbound.config import FULL_SHADOW

RAW = replace(FULL_SHADOW, optimize_checks=False)
NO_LOOP = replace(FULL_SHADOW, loop_optimize=False)

ARRAY_WALK = """
int main(void) {
    int *a = (int *)malloc(200 * sizeof(int));
    int s = 0;
    for (int i = 0; i < 200; i++) a[i] = i;
    for (int i = 0; i < 200; i++) s = s + a[i];
    return s & 0xff;
}
"""


def slow_blocks(compiled, fname="_sb_main"):
    return [b.label for b in compiled.module.functions[fname].blocks
            if b.label.endswith(".slow")]


class TestFastPath:
    def test_in_bounds_walk_runs_check_free(self):
        slow = compile_source(ARRAY_WALK, profile=NO_LOOP).run()
        fast = compile_source(ARRAY_WALK, profile=FULL_SHADOW).run()
        assert slow.exit_code == fast.exit_code
        assert slow.output == fast.output
        assert fast.trap is None
        # 400 per-iteration checks collapse to a handful of widened
        # guard evaluations (plain compares, not sb_checks).
        assert slow.stats.checks >= 400
        assert fast.stats.checks < 10
        assert fast.stats.cost < slow.stats.cost

    def test_loop_is_versioned_not_stripped(self):
        compiled = compile_source(ARRAY_WALK, profile=FULL_SHADOW)
        labels = slow_blocks(compiled)
        assert labels, "expected slow-path clones of the widened loops"
        assert compiled.check_opt_stats.widened_loops >= 2
        assert compiled.check_opt_stats.widened_checks >= 2
        # The slow clones keep their checks.
        func = compiled.module.functions["_sb_main"]
        slow_checks = sum(
            1 for b in func.blocks if b.label.endswith(".slow")
            for i in b.instructions if i.opcode == "sb_check")
        assert slow_checks >= 2

    def test_runtime_bound_widens_too(self):
        source = """
        int sum(int *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s = s + a[i];
            return s;
        }
        int main(void) {
            int *a = (int *)malloc(64 * sizeof(int));
            for (int i = 0; i < 64; i++) a[i] = 1;
            return sum(a, 64);
        }
        """
        fast = compile_source(source, profile=FULL_SHADOW).run()
        slow = compile_source(source, profile=NO_LOOP).run()
        assert fast.exit_code == slow.exit_code == 64
        assert fast.stats.checks < slow.stats.checks

    def test_step_two_and_inclusive_bounds(self):
        source = """
        int main(void) {
            long a[101];
            long s = 0;
            for (int i = 0; i <= 100; i += 2) a[i] = i;
            for (int i = 0; i <= 100; i += 2) s = s + a[i];
            return (int)(s & 0x7f);
        }
        """
        fast = compile_source(source, profile=FULL_SHADOW).run()
        slow = compile_source(source, profile=NO_LOOP).run()
        assert fast.exit_code == slow.exit_code
        assert fast.trap is None
        assert fast.stats.checks < slow.stats.checks

    def test_downward_affine_access(self):
        # a[n-1-i]: negative coefficient — endpoints still bound the range.
        source = """
        int main(void) {
            int a[64];
            int s = 0;
            for (int i = 0; i < 64; i++) a[63 - i] = i;
            for (int i = 0; i < 64; i++) s = s + a[i];
            return s & 0xff;
        }
        """
        fast = compile_source(source, profile=FULL_SHADOW).run()
        slow = compile_source(source, profile=NO_LOOP).run()
        assert fast.exit_code == slow.exit_code
        assert fast.trap is None
        assert fast.stats.checks < slow.stats.checks

    def test_calls_inside_widened_loops_are_cloned(self):
        source = """
        int bump(int x) { return x + 1; }
        int main(void) {
            int *a = (int *)malloc(64 * sizeof(int));
            int s = 0;
            for (int i = 0; i < 64; i++) a[i] = bump(i);
            for (int i = 0; i < 64; i++) s = s + a[i];
            return s & 0xff;
        }
        """
        fast = compile_source(source, profile=FULL_SHADOW).run()
        slow = compile_source(source, profile=NO_LOOP).run()
        assert fast.exit_code == slow.exit_code
        assert fast.output == slow.output
        assert fast.stats.checks < slow.stats.checks


class TestTrapEquivalence:
    OVERFLOW = """
    int main(void) {
        int a[8];
        for (int i = 0; i < 9; i++) a[i] = i;   /* i == 8 overflows */
        return 0;
    }
    """

    def test_overflowing_walk_takes_the_slow_path(self):
        raw = compile_source(self.OVERFLOW, profile=RAW).run()
        fast = compile_source(self.OVERFLOW, profile=FULL_SHADOW).run()
        assert raw.trap is not None and fast.trap is not None
        assert raw.trap.kind == fast.trap.kind
        assert raw.trap.address == fast.trap.address
        assert raw.trap.detail == fast.trap.detail
        assert raw.output == fast.output

    def test_trap_fires_at_the_same_iteration(self):
        # Output emitted before the trap must be preserved exactly: a
        # naive preheader check would trap before any iteration ran.
        source = """
        int main(void) {
            int a[4];
            for (int i = 0; i < 6; i++) {
                putchar('a' + i);
                a[i] = i;
            }
            return 0;
        }
        """
        raw = compile_source(source, profile=RAW).run()
        fast = compile_source(source, profile=FULL_SHADOW).run()
        assert raw.trap is not None and fast.trap is not None
        assert raw.output == fast.output  # 5 chars: trap mid-iteration 4
        assert raw.trap.address == fast.trap.address

    def test_header_condition_access_is_never_widened(self):
        # A condition-expression access evaluates once more on the
        # exiting iteration, with i == N — an address outside the
        # guard's [S, N-1] endpoints.  Regression: widening must leave
        # checks in blocks not dominated by the exit test alone, or
        # this genuine out-of-bounds read escapes detection.
        source = """
        int main(void) {
            int a[1000];
            int s = 0;
            int i;
            for (i = 0; s += a[i], i < 1000; i++) {}
            return s & 1;
        }
        """
        raw = compile_source(source, profile=RAW).run()
        fast = compile_source(source, profile=FULL_SHADOW).run()
        assert raw.trap is not None and fast.trap is not None
        assert raw.trap.kind == fast.trap.kind
        assert raw.trap.address == fast.trap.address

    def test_zero_trip_loop(self):
        source = """
        int main(void) {
            int a[4];
            int n = 0;
            for (int i = 0; i < n; i++) a[i + 100] = 1;
            return 7;
        }
        """
        fast = compile_source(source, profile=FULL_SHADOW).run()
        raw = compile_source(source, profile=RAW).run()
        assert fast.trap is None and raw.trap is None
        assert fast.exit_code == raw.exit_code == 7


class TestProfitabilityGate:
    def test_short_constant_trip_loops_are_left_alone(self):
        # 2 iterations never amortize a guard: the loop must not be
        # versioned (static check count unchanged, no .slow blocks).
        source = """
        int main(void) {
            int a[2];
            int s = 0;
            for (int i = 0; i < 2; i++) a[i] = i;
            for (int i = 0; i < 2; i++) s = s + a[i];
            return s;
        }
        """
        compiled = compile_source(source, profile=FULL_SHADOW)
        assert slow_blocks(compiled) == []
        result = compiled.run()
        assert result.exit_code == 1 and result.trap is None
