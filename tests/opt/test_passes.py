"""Optimizer pass tests: mem2reg, constfold, dce, checkelim."""

from repro.frontend.typecheck import parse_and_check
from repro.api import compile_source
from repro.ir.verifier import verify_module
from repro.lower.lowering import lower
from repro.opt import checkelim, constfold, dce, mem2reg
from repro.opt.pipeline import optimize_module
from repro.softbound.config import FULL_SHADOW, SoftBoundConfig


def lowered(source):
    return lower(parse_and_check(source))


def count_opcode(func, opcode):
    return sum(1 for i in func.instructions() if i.opcode == opcode)


class TestMem2Reg:
    def test_promotes_scalar_locals(self):
        module = lowered("int f(void) { int a = 1; int b = 2; return a + b; }")
        func = module.functions["f"]
        before = count_opcode(func, "alloca")
        promoted = mem2reg.run(func)
        assert promoted == before  # every local is a non-escaping scalar
        assert count_opcode(func, "alloca") == 0
        assert count_opcode(func, "load") == 0

    def test_address_taken_local_not_promoted(self):
        module = lowered("int f(void) { int a = 1; int *p = &a; return *p; }")
        func = module.functions["f"]
        mem2reg.run(func)
        assert count_opcode(func, "alloca") == 1  # `a` stays; `p` promoted

    def test_arrays_never_promoted(self):
        module = lowered("int f(void) { int a[4]; a[0] = 1; return a[0]; }")
        func = module.functions["f"]
        mem2reg.run(func)
        assert count_opcode(func, "alloca") == 1

    def test_promotion_preserves_behaviour(self):
        src = r'''
        int f(int n) {
            int total = 0;
            for (int i = 0; i < n; i++) total += i * i;
            return total;
        }
        int main(void) { return f(10); }
        '''
        unopt = compile_source(src, optimize=False).run()
        opt = compile_source(src, optimize=True).run()
        assert unopt.exit_code == opt.exit_code == 285
        assert opt.stats.memory_ops < unopt.stats.memory_ops

    def test_loop_carried_pointer_promoted_correctly(self):
        src = r'''
        struct node { int v; struct node *next; };
        int main(void) {
            struct node a; struct node b;
            a.v = 1; a.next = &b; b.v = 2; b.next = NULL;
            int total = 0;
            for (struct node *p = &a; p; p = p->next) total += p->v;
            return total;
        }
        '''
        assert compile_source(src).run().exit_code == 3


class TestConstFold:
    def test_folds_constant_arithmetic(self):
        module = lowered("int f(void) { return 2 * 3 + 4; }")
        func = module.functions["f"]
        changed = constfold.run(func)
        # The frontend keeps the expression tree; folding rewrites it.
        assert changed >= 1

    def test_folds_constant_branches(self):
        module = lowered("int f(void) { if (1) return 5; return 6; }")
        func = module.functions["f"]
        constfold.run(func)
        cbrs = [i for i in func.instructions() if i.opcode == "cbr"]
        from repro.ir.values import Const
        assert not any(isinstance(c.cond, Const) for c in cbrs)

    def test_fold_preserves_wrapping(self):
        src = "int main(void) { return 2147483647 + 1 < 0; }"
        assert compile_source(src).run().exit_code == 1


class TestDce:
    def test_removes_unused_pure_instructions(self):
        module = lowered("int f(int x) { int unused = x * 99; return x; }")
        func = module.functions["f"]
        mem2reg.run(func)
        removed = dce.run(func)
        assert removed >= 1

    def test_keeps_division_that_can_trap(self):
        module = lowered("int f(int x) { int unused = 10 / x; return x; }")
        func = module.functions["f"]
        mem2reg.run(func)
        dce.run(func)
        assert any(i.opcode == "binop" and i.op == "sdiv" for i in func.instructions())

    def test_keeps_loads(self):
        """Dead loads stay: they can be the read-overflow bugs the
        detection experiments must still observe."""
        module = lowered("int g[4]; int f(void) { int dead = g[0]; return 7; }")
        func = module.functions["f"]
        mem2reg.run(func)
        dce.run(func)
        assert count_opcode(func, "load") >= 1


class TestCheckElim:
    def test_removes_dominated_duplicate_checks(self):
        src = r'''
        int main(void) {
            int a[4];
            int *p = a;
            *p = 1; *p = 2;    /* same pointer register, same bounds */
            return *p;
        }
        '''
        with_elim = compile_source(src, profile=FULL_SHADOW)
        without = compile_source(src, profile=SoftBoundConfig(optimize_checks=False))
        def checks(compiled):
            return sum(1 for i in compiled.module.functions["_sb_main"].instructions()
                       if i.opcode == "sb_check")
        assert checks(with_elim) < checks(without)

    def test_does_not_remove_differently_sized_larger_check(self):
        src = r'''
        int main(void) {
            char buf[16];
            char *p = buf;
            p[0] = 1;                 /* 1-byte check            */
            *(long *)p = 2;           /* 8-byte check must stay  */
            return (int)*(long *)p;
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert result.trap is None and result.exit_code == 2

    def test_safety_preserved_after_elimination(self):
        src = r'''
        int main(void) {
            int a[4];
            int *p = a;
            p[0] = 1;
            p[5] = 2;   /* must still trap after checkelim */
            return 0;
        }
        '''
        result = compile_source(src, profile=FULL_SHADOW).run()
        assert result.detected_violation


class TestPipeline:
    def test_optimized_module_verifies(self):
        module = lowered(r'''
        int helper(int *p, int n) { return p[n]; }
        int main(void) { int a[3]; a[1] = 9; return helper(a, 1); }
        ''')
        optimize_module(module)
        assert verify_module(module)

    def test_pipeline_reports_stats(self):
        module = lowered("int f(void) { int a = 1 + 2; return a; }")
        stats = optimize_module(module)
        assert stats.promoted_allocas >= 1
