"""Baseline checker behaviour: each tool's powers and blind spots."""

import pytest

from repro.baselines import (
    JonesKellyChecker,
    MudflapChecker,
    ValgrindChecker,
    compile_with_mscc,
    find_wild_casts,
)
from repro.baselines.mscc import MSCC_CONFIG
from repro.api import compile_source
from repro.vm.errors import TrapKind

HEAP_WRITE_OVERFLOW = r'''
int main(void) {
    int *a = (int *)malloc(8 * sizeof(int));
    a[8] = 1;
    return 0;
}
'''

HEAP_READ_OVERFLOW = r'''
int main(void) {
    int *a = (int *)malloc(8 * sizeof(int));
    return a[8] & 1;
}
'''

STACK_OVERFLOW = r'''
int main(void) {
    int a[4];
    for (int i = 0; i <= 4; i++) a[i] = i;
    return 0;
}
'''

SUBOBJECT_OVERFLOW = r'''
struct s { char buf[8]; long tail; };
struct s g;
int main(void) {
    char *p = g.buf;
    for (int i = 0; i < 12; i++) p[i] = 'x';
    return 0;
}
'''

USE_AFTER_FREE = r'''
int main(void) {
    int *p = (int *)malloc(16);
    free(p);
    p[0] = 1;
    return 0;
}
'''

BENIGN = r'''
struct node { int v; struct node *next; };
int main(void) {
    struct node *head = NULL;
    for (int i = 0; i < 10; i++) {
        struct node *n = (struct node *)malloc(sizeof(struct node));
        n->v = i; n->next = head; head = n;
    }
    int total = 0;
    while (head) { total += head->v; head = head->next; }
    return total;
}
'''


def detected(source, checker_factory):
    result = compile_source(source).run(observers=(checker_factory(),))
    return result.trap is not None and result.trap.kind is TrapKind.SPATIAL_VIOLATION


class TestValgrindSim:
    def test_catches_heap_write(self):
        assert detected(HEAP_WRITE_OVERFLOW, ValgrindChecker)

    def test_catches_heap_read(self):
        assert detected(HEAP_READ_OVERFLOW, ValgrindChecker)

    def test_catches_use_after_free(self):
        assert detected(USE_AFTER_FREE, ValgrindChecker)

    def test_misses_stack_overflow(self):
        """The blind spot Section 6.2 cites: 'Valgrind does not detect
        overflows on the stack'."""
        assert not detected(STACK_OVERFLOW, ValgrindChecker)

    def test_misses_subobject_overflow(self):
        assert not detected(SUBOBJECT_OVERFLOW, ValgrindChecker)

    def test_no_false_positive_on_benign(self):
        result = compile_source(BENIGN).run(observers=(ValgrindChecker(),))
        assert result.trap is None
        assert result.exit_code == 45


class TestObjectTables:
    @pytest.mark.parametrize("factory", [JonesKellyChecker, MudflapChecker])
    def test_catches_heap_write(self, factory):
        assert detected(HEAP_WRITE_OVERFLOW, factory)

    @pytest.mark.parametrize("factory", [JonesKellyChecker, MudflapChecker])
    def test_catches_stack_overflow(self, factory):
        assert detected(STACK_OVERFLOW, factory)

    @pytest.mark.parametrize("factory", [JonesKellyChecker, MudflapChecker])
    def test_misses_subobject_overflow(self, factory):
        """The defining incompleteness of object-granularity schemes
        (paper Section 2.1)."""
        assert not detected(SUBOBJECT_OVERFLOW, factory)

    @pytest.mark.parametrize("factory", [JonesKellyChecker, MudflapChecker])
    def test_no_false_positive_on_benign(self, factory):
        result = compile_source(BENIGN).run(observers=(factory(),))
        assert result.trap is None
        assert result.exit_code == 45

    def test_jones_kelly_charges_splay_costs(self):
        result = compile_source(BENIGN).run(observers=(JonesKellyChecker(),))
        base = compile_source(BENIGN).run()
        assert result.stats.cost > base.stats.cost

    def test_mudflap_cache_hits(self):
        checker = MudflapChecker()
        compile_source(BENIGN).run(observers=(checker,))
        assert checker.cache_hits > 0


class TestMscc:
    def test_catches_heap_overflow(self):
        result = compile_source(HEAP_WRITE_OVERFLOW, profile=MSCC_CONFIG).run()
        assert result.detected_violation

    def test_misses_subobject_overflow(self):
        """MSCC's best configuration has no sub-object bounds."""
        result = compile_source(SUBOBJECT_OVERFLOW, profile=MSCC_CONFIG).run()
        assert not result.detected_violation

    def test_costs_more_than_softbound(self):
        from repro.softbound.config import FULL_SHADOW

        mscc = compile_source(BENIGN, profile=MSCC_CONFIG).run()
        softbound = compile_source(BENIGN, profile=FULL_SHADOW).run()
        assert mscc.stats.cost > softbound.stats.cost

    def test_behaviour_preserved_on_benign(self):
        result = compile_source(BENIGN, profile=MSCC_CONFIG).run()
        assert result.trap is None and result.exit_code == 45


class TestWildCastDetector:
    def test_flags_int_to_pointer(self):
        findings = find_wild_casts("int main(void) { int *p = (int *)1234; return 0; }")
        assert findings

    def test_null_cast_not_flagged(self):
        findings = find_wild_casts("int main(void) { int *p = (int *)0; return 0; }")
        assert not findings

    def test_flags_widening_pointer_cast(self):
        src = "long f(char *c) { return *(long *)c; }"
        assert find_wild_casts(src)

    def test_narrowing_pointer_cast_ok(self):
        src = "char f(long *l) { return *(char *)l; }"
        assert not find_wild_casts(src)

    def test_clean_program_has_no_findings(self):
        src = r'''
        struct s { int a; };
        int main(void) {
            struct s *p = (struct s *)malloc(sizeof(struct s));
            p->a = 1;
            return p->a;
        }
        '''
        assert not find_wild_casts(src)
