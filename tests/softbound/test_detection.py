"""Behavioral detection tests: what SoftBound catches and what it allows.

These encode the paper's semantic claims: complete spatial safety under
full checking (Section 3), sub-object protection via bound shrinking,
tolerated out-of-bounds pointer *creation* (dereference is what traps),
arbitrary-cast compatibility, store-only mode's load blind spot, and the
metadata disjointness property of Section 3.4.
"""

import pytest

from repro.api import compile_source
from repro.softbound.config import (
    FULL_HASH,
    FULL_SHADOW,
    STORE_SHADOW,
    SoftBoundConfig,
)
from repro.vm.errors import TrapKind

ALL_FULL = [FULL_SHADOW, FULL_HASH]


def detected(result):
    return result.trap is not None and result.trap.kind is TrapKind.SPATIAL_VIOLATION


@pytest.mark.parametrize("config", ALL_FULL, ids=lambda c: c.label)
class TestFullChecking:
    def test_heap_write_overflow_detected(self, config):
        src = r'''
        int main(void) {
            char *buf = (char *)malloc(8);
            buf[8] = 'x';   /* one past the end */
            return 0;
        }
        '''
        assert detected(compile_source(src, profile=config).run())

    def test_heap_read_overflow_detected(self, config):
        src = r'''
        int main(void) {
            int *a = (int *)malloc(4 * sizeof(int));
            return a[4];
        }
        '''
        assert detected(compile_source(src, profile=config).run())

    def test_stack_overflow_detected(self, config):
        src = r'''
        int main(void) {
            int a[4];
            for (int i = 0; i <= 4; i++) a[i] = i;
            return 0;
        }
        '''
        assert detected(compile_source(src, profile=config).run())

    def test_global_overflow_detected(self, config):
        src = r'''
        int g[4];
        int main(void) { g[4] = 1; return 0; }
        '''
        assert detected(compile_source(src, profile=config).run())

    def test_underflow_detected(self, config):
        src = r'''
        int main(void) {
            int *a = (int *)malloc(4 * sizeof(int));
            a[-1] = 7;   /* heap header smash */
            return 0;
        }
        '''
        assert detected(compile_source(src, profile=config).run())

    def test_sub_object_overflow_detected(self, config):
        """The paper's Section 2.1 example: object-based schemes miss
        this; SoftBound's shrunk bounds catch it."""
        src = r'''
        struct rec { char str[8]; void (*func)(void); };
        struct rec node;
        void noop(void) {}
        int main(void) {
            node.func = noop;
            char *ptr = node.str;
            strcpy(ptr, "overflow...");
            return 0;
        }
        '''
        assert detected(compile_source(src, profile=config).run())

    def test_whole_access_must_fit(self, config):
        """Section 3.1: the check includes the access size — reading an
        int through a char's pointer is a violation."""
        src = r'''
        int main(void) {
            char c = 'x';
            char *cp = &c;
            int *ip = (int *)cp;
            return *ip;
        }
        '''
        assert detected(compile_source(src, profile=config).run())

    def test_pointer_from_integer_has_null_bounds(self, config):
        src = r'''
        int main(void) {
            long addr = 4096 * 33;
            int *p = (int *)addr;
            return *p;
        }
        '''
        assert detected(compile_source(src, profile=config).run())

    def test_benign_program_unaffected(self, config):
        src = r'''
        int main(void) {
            int a[10];
            int total = 0;
            for (int i = 0; i < 10; i++) a[i] = i;
            for (int i = 0; i < 10; i++) total += a[i];
            return total;
        }
        '''
        result = compile_source(src, profile=config).run()
        assert result.trap is None
        assert result.exit_code == 45

    def test_out_of_bounds_pointer_creation_allowed(self, config):
        """Section 3.1: 'as is required by C semantics, creating an
        out-of-bound pointer is allowed' — only dereference traps."""
        src = r'''
        int main(void) {
            int a[4];
            int *end = a + 4;       /* one-past-the-end: legal */
            int *wild = a + 100;    /* far out: still legal to create */
            return (int)(end - a) + (wild != a);
        }
        '''
        result = compile_source(src, profile=config).run()
        assert result.trap is None
        assert result.exit_code == 5

    def test_arbitrary_casts_tolerated(self, config):
        """Wild casts must neither trap nor corrupt metadata."""
        src = r'''
        int main(void) {
            double d = 2.0;
            long *lp = (long *)&d;
            long bits = *lp;
            int *ip = (int *)lp;
            int low = *ip;
            return bits != 0 && low >= 0;
        }
        '''
        result = compile_source(src, profile=config).run()
        assert result.trap is None

    def test_interior_pointer_keeps_object_bounds(self, config):
        src = r'''
        int main(void) {
            int *a = (int *)malloc(10 * sizeof(int));
            int *mid = a + 5;      /* pointer to the middle */
            mid[-3] = 7;           /* still inside the object */
            mid[4] = 8;
            return a[2] * 10 + a[9];
        }
        '''
        result = compile_source(src, profile=config).run()
        assert result.trap is None
        assert result.exit_code == 78

    def test_dangling_reuse_not_a_false_positive(self, config):
        """Temporal safety is explicitly out of scope (Section 1 fn 1):
        use-after-free within the reused block must not trap."""
        src = r'''
        int main(void) {
            int *p = (int *)malloc(16);
            free(p);
            int *q = (int *)malloc(16);
            q[0] = 9;
            return q[0];
        }
        '''
        result = compile_source(src, profile=config).run()
        assert result.trap is None


class TestStoreOnlyMode:
    def test_write_overflow_detected(self):
        src = r'''
        int main(void) {
            char *p = (char *)malloc(4);
            p[4] = 1;
            return 0;
        }
        '''
        assert detected(compile_source(src, profile=STORE_SHADOW).run())

    def test_read_overflow_missed(self):
        """The documented blind spot (Table 4: store-only misses the
        load-overflow bugs)."""
        src = r'''
        int main(void) {
            int *a = (int *)malloc(4 * sizeof(int));
            return a[4] & 1;   /* read past end */
        }
        '''
        result = compile_source(src, profile=STORE_SHADOW).run()
        assert result.trap is None or result.trap.kind is not TrapKind.SPATIAL_VIOLATION


class TestMetadataIntegrity:
    def test_disjoint_metadata_survives_wild_stores(self):
        """Section 3.4: 'normal program memory operations cannot corrupt
        the metadata'.  Overwrite a pointer slot via a cast, then deref
        the (now garbage) pointer: SoftBound must trap, not wander."""
        src = r'''
        int main(void) {
            int x = 5;
            int *p = &x;
            long *alias = (long *)&p;
            *alias = 12345;     /* smash the pointer via a wild cast */
            return *p;          /* metadata says [&x,&x+4) but p=12345 */
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert detected(result)

    def test_setbound_escape_hatch(self):
        """Section 5.2: programmer-inserted setbound() blesses a pointer
        created from an integer."""
        src = r'''
        int main(void) {
            int *a = (int *)malloc(8 * sizeof(int));
            long addr = (long)a;
            int *p = (int *)addr;      /* NULL bounds */
            setbound(p, 8 * sizeof(int));
            p[7] = 3;                  /* fine after setbound */
            return p[7];
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert result.trap is None
        assert result.exit_code == 3

    def test_setbound_survives_return_and_optimization(self):
        """Regression: the bound register created by setbound() inside a
        pool allocator is consumed only through Ret.sb_meta; DCE once
        considered it dead, collapsing the returned bound to 0 and making
        every in-bounds use of the pool trap."""
        src = r'''
        char arena[256];
        int next_free = 0;
        char *pool_alloc(int size) {
            char *object = arena + next_free;
            next_free = next_free + size;
            setbound(object, size);
            return object;
        }
        int main(void) {
            char *a = pool_alloc(8);
            a[0] = 1;                   /* in-bounds: must not trap */
            a[7] = 2;                   /* in-bounds: must not trap */
            char *b = pool_alloc(8);
            b[0] = 9;
            a[8] = 3;                   /* into b's object: must trap */
            return 0;
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert detected(result)
        assert "store of 1 bytes" in result.trap.detail

    def test_setbound_updates_unpromoted_memory_variable(self):
        """Regression: when the pointer variable still lives in memory
        (unoptimized build), setbound() must refresh the variable's
        metadata-table entry, not just the loaded register's bounds."""
        src = r'''
        int main(void) {
            int *a = (int *)malloc(8 * sizeof(int));
            long addr = (long)a;
            int *p = (int *)addr;      /* NULL bounds */
            setbound(p, 8 * sizeof(int));
            p[7] = 3;                  /* later load of p: needs table */
            return p[7];
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW, optimize=False).run()
        assert result.trap is None
        assert result.exit_code == 3

    def test_setbound_covers_copies_in_other_blocks(self):
        """Regression: a register-promoted copy of the variable made
        *before* the setbound() call, and used in a different basic
        block, must also receive the new bounds."""
        src = r'''
        int main(void) {
            double d = 4.0;
            long bits = *(long *)&d;
            int *ip = (int *)&d;
            long addr = (long)ip;
            int *again = (int *)addr;
            setbound(again, sizeof(double));
            return bits != 0 && *again == *ip;
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert result.trap is None
        assert result.exit_code == 1

    def test_metadata_cleared_on_free(self):
        """Section 5.2: metadata cleared when pointer-bearing heap memory
        is released, so recycled memory can't supply stale bounds."""
        src = r'''
        struct holder { int *p; };
        int main(void) {
            int target;
            struct holder *h = (struct holder *)malloc(sizeof(struct holder));
            h->p = &target;
            free(h);
            long *raw = (long *)malloc(sizeof(struct holder));
            int **pp = (int **)raw;
            int *stale = *pp;          /* reads recycled memory */
            return *stale;             /* must trap: metadata was cleared */
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert detected(result)


class TestFunctionPointerProtection:
    def test_data_pointer_cannot_be_called(self):
        src = r'''
        int main(void) {
            int x = 7;
            int *data = &x;
            int (*fp)(void) = (int (*)(void))data;
            return fp();
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert result.trap is not None
        assert result.trap.kind is TrapKind.FUNCTION_POINTER_VIOLATION

    def test_legitimate_function_pointer_calls_work(self):
        src = r'''
        int three(void) { return 3; }
        int main(void) {
            int (*fp)(void) = three;
            return fp();
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert result.trap is None
        assert result.exit_code == 3

    def test_function_pointer_through_struct_and_memory(self):
        src = r'''
        struct ops { int (*get)(void); };
        int five(void) { return 5; }
        int main(void) {
            struct ops table;
            table.get = five;
            return table.get();
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert result.trap is None
        assert result.exit_code == 5


class TestVarargProtection:
    def test_vararg_overdecode_detected(self):
        """Section 5.2: vararg decode checked against passed count."""
        src = r'''
        int take(int n, ...) {
            va_list ap;
            va_start(&ap);
            long a = va_arg_long(&ap);
            long b = va_arg_long(&ap);   /* only one was passed */
            return (int)(a + b);
        }
        int main(void) { return take(1, 10); }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert result.trap is not None
        assert result.trap.kind is TrapKind.VARARG_VIOLATION

    def test_vararg_pointer_metadata_flows(self):
        src = r'''
        int first_elem(int n, ...) {
            va_list ap;
            va_start(&ap);
            int *p = (int *)va_arg_ptr(&ap);
            return p[0];
        }
        int main(void) {
            int a[2];
            a[0] = 42;
            return first_elem(1, a);
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert result.trap is None
        assert result.exit_code == 42

    def test_vararg_pointer_overflow_caught(self):
        src = r'''
        int smash(int n, ...) {
            va_list ap;
            va_start(&ap);
            int *p = (int *)va_arg_ptr(&ap);
            p[5] = 1;   /* out of bounds of the passed array */
            return 0;
        }
        int main(void) {
            int a[2];
            return smash(1, a);
        }
        '''
        assert detected(compile_source(src, profile=FULL_SHADOW).run())


class TestSilentCorruptionWithoutSoftBound:
    """Control group: the same bugs run 'fine' (i.e. corrupt silently)
    without instrumentation, which is the paper's motivation."""

    def test_stack_overflow_corrupts_silently(self):
        src = r'''
        int main(void) {
            int victim = 7;
            int a[4];
            for (int i = 0; i < 8; i++) a[i] = 1;  /* overflows into frame */
            return 0;
        }
        '''
        result = compile_source(src).run()
        assert result.trap is None or result.trap.kind is not TrapKind.SPATIAL_VIOLATION

    def test_sub_object_overflow_corrupts_sibling_field(self):
        src = r'''
        struct rec { char str[8]; long secret; };
        struct rec g;
        int main(void) {
            g.secret = 7;
            strcpy(g.str, "AAAAAAAAAAAA");   /* 12 chars + NUL */
            return g.secret == 7;
        }
        '''
        result = compile_source(src).run()
        assert result.trap is None
        assert result.exit_code == 0  # secret was corrupted
