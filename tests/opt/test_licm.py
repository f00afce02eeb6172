"""Loop-invariant code motion for checks and metadata loads."""

from dataclasses import replace

from repro.api import compile_source
from repro.softbound.config import FULL_SHADOW

RAW = replace(FULL_SHADOW, optimize_checks=False)
NO_LOOP = replace(FULL_SHADOW, loop_optimize=False)


def run_checks(source, config, input_data=b""):
    result = compile_source(source, profile=config).run(input_data=input_data)
    return result


class TestHeaderCheckHoisting:
    # `while (*p ...)` puts the dereference check in the loop header
    # with invariant operands — the LICM target shape.  No access
    # happens before the loop, so dominance-based elimination cannot
    # cover the header check with a pre-loop occurrence: only hoisting
    # removes its per-iteration cost.
    SOURCE = """
    int main(void) {
        int *p = (int *)malloc(sizeof(int));
        while (*p < 40) { *p = *p + 1; }
        return *p;
    }
    """

    def test_dynamic_checks_drop_to_loop_entries(self):
        slow = run_checks(self.SOURCE, NO_LOOP)
        fast = run_checks(self.SOURCE, FULL_SHADOW)
        assert slow.exit_code == fast.exit_code == 40
        assert fast.trap is None
        # Without hoisting the surviving header check runs once per
        # iteration (41 evaluations); hoisted it runs once.
        assert fast.stats.checks < slow.stats.checks - 30

    def test_behaviour_identical_to_unoptimized(self):
        raw = run_checks(self.SOURCE, RAW)
        fast = run_checks(self.SOURCE, FULL_SHADOW)
        assert (raw.exit_code, raw.output) == (fast.exit_code, fast.output)
        assert raw.trap is None and fast.trap is None

    def test_pass_stats_report_hoists(self):
        compiled = compile_source(self.SOURCE, profile=FULL_SHADOW)
        assert compiled.check_opt_stats is not None
        assert compiled.check_opt_stats.hoisted_checks >= 1


class TestTrapPreservation:
    def test_hoisted_check_trap_is_bit_identical(self):
        # The pointer is out of bounds before the loop: the header
        # check fires on the very first evaluation, so the hoisted
        # check must produce the same trap at the same address.
        source = """
        int main(void) {
            int *p = (int *)malloc(4 * sizeof(int));
            int *q = p + 9;
            while (*q < 5) { *q = *q + 1; }
            return 0;
        }
        """
        raw = compile_source(source, profile=RAW).run()
        fast = compile_source(source, profile=FULL_SHADOW).run()
        assert raw.trap is not None and fast.trap is not None
        assert raw.trap.kind == fast.trap.kind
        assert raw.trap.address == fast.trap.address
        assert raw.trap.detail == fast.trap.detail
        assert raw.output == fast.output

    def test_zero_trip_loop_stays_trap_free(self):
        # A while loop whose body never runs: the header check still
        # evaluated once in the original, so hoisting it is invisible.
        source = """
        int main(void) {
            int *p = (int *)malloc(sizeof(int));
            *p = 99;
            while (*p < 5) { *p = *p + 1; }
            return *p;
        }
        """
        raw = compile_source(source, profile=RAW).run()
        fast = compile_source(source, profile=FULL_SHADOW).run()
        assert raw.trap is None and fast.trap is None
        assert raw.exit_code == fast.exit_code == 99


class TestMetaLoadHoisting:
    def test_invariant_meta_load_leaves_the_loop(self):
        # `q` lives in memory (address taken), so reading `*q` in the
        # loop needs a metadata load for q's slot — invariant, and the
        # loop body writes only through q (no table writes).
        source = """
        int sink;
        int main(void) {
            int *q = (int *)malloc(sizeof(int));
            int **qq = &q;
            int s = 0;
            for (int i = 0; i < 30; i++) { s = s + **qq; }
            sink = s;
            return s;
        }
        """
        slow = run_checks(source, NO_LOOP)
        fast = run_checks(source, FULL_SHADOW)
        assert slow.exit_code == fast.exit_code
        assert fast.trap is None
        assert fast.stats.metadata_loads < slow.stats.metadata_loads
