"""Interpreter integration tests: C semantics end-to-end (unprotected)."""

import pytest

from repro.api import compile_source


def run(source, **kwargs):
    result = compile_source(source).run(**kwargs)
    assert result.trap is None, f"unexpected trap: {result.trap}"
    return result


def test_arithmetic_and_return():
    assert run("int main(void) { return (3 + 4) * 5 % 7; }").exit_code == 0


def test_signed_division_truncates_toward_zero():
    assert run("int main(void) { return -7 / 2; }").exit_code == -3
    assert run("int main(void) { return -7 % 2; }").exit_code == -1


def test_unsigned_arithmetic_wraps():
    src = "int main(void) { unsigned int x = 0; x = x - 1; return x > 1000000; }"
    assert run(src).exit_code == 1


def test_integer_overflow_wraps():
    src = "int main(void) { int x = 2147483647; x = x + 1; return x < 0; }"
    assert run(src).exit_code == 1


def test_char_sign_extension():
    src = "int main(void) { char c = 200; return c; }"  # 200 wraps to -56
    assert run(src).exit_code == -56


def test_shift_operators():
    assert run("int main(void) { return (1 << 4) | (256 >> 4); }").exit_code == 16
    assert run("int main(void) { return (1 << 5) + (-8 >> 1); }").exit_code == 28


def test_comparison_chain_and_logical_ops():
    src = "int main(void) { int a = 3, b = 5; return (a < b && b < 10) + (a > b || !a); }"
    assert run(src).exit_code == 1


def test_short_circuit_evaluation_skips_rhs():
    src = r'''
    int g = 0;
    int bump(void) { g = g + 1; return 1; }
    int main(void) { int x = 0; (x && bump()); (1 || bump()); return g; }
    '''
    assert run(src).exit_code == 0


def test_while_and_do_while():
    src = r'''
    int main(void) {
        int i = 0, total = 0;
        while (i < 5) { total += i; i++; }
        do { total += 100; } while (0);
        return total;
    }
    '''
    assert run(src).exit_code == 110


def test_for_with_break_continue():
    src = r'''
    int main(void) {
        int total = 0;
        for (int i = 0; i < 100; i++) {
            if (i % 2) continue;
            if (i > 10) break;
            total += i;
        }
        return total;
    }
    '''
    assert run(src).exit_code == 30


def test_switch_with_fallthrough_and_default():
    src = r'''
    int classify(int x) {
        int r = 0;
        switch (x) {
            case 1:
            case 2: r = 12; break;
            case 3: r = 3; break;
            default: r = -1;
        }
        return r;
    }
    int main(void) { return classify(1) + classify(2) + classify(3) + classify(9); }
    '''
    assert run(src).exit_code == 12 + 12 + 3 - 1


def test_goto_loop():
    src = r'''
    int main(void) {
        int i = 0;
    again:
        i++;
        if (i < 7) goto again;
        return i;
    }
    '''
    assert run(src).exit_code == 7


def test_recursion_deep():
    src = "int f(int n) { return n ? n + f(n - 1) : 0; } int main(void) { return f(100) == 5050; }"
    assert run(src).exit_code == 1


def test_mutual_recursion():
    src = r'''
    int is_odd(int n);
    int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
    int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
    int main(void) { return is_even(10) * 10 + is_odd(7); }
    '''
    assert run(src).exit_code == 11


def test_pointer_swap_through_params():
    src = r'''
    void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
    int main(void) { int x = 3, y = 9; swap(&x, &y); return x * 10 + y; }
    '''
    assert run(src).exit_code == 93


def test_pointer_arithmetic_and_difference():
    src = r'''
    int main(void) {
        int a[10];
        int *p = &a[2], *q = &a[7];
        return (int)(q - p);
    }
    '''
    assert run(src).exit_code == 5


def test_array_of_structs():
    src = r'''
    struct point { int x; int y; };
    int main(void) {
        struct point pts[3];
        for (int i = 0; i < 3; i++) { pts[i].x = i; pts[i].y = i * i; }
        return pts[2].y * 10 + pts[1].x;
    }
    '''
    assert run(src).exit_code == 41


def test_struct_assignment_copies_value():
    src = r'''
    struct pair { int a; int b; };
    int main(void) {
        struct pair p; struct pair q;
        p.a = 1; p.b = 2;
        q = p;
        p.a = 99;
        return q.a * 10 + q.b;
    }
    '''
    assert run(src).exit_code == 12


def test_nested_struct_access():
    src = r'''
    struct inner { int v; };
    struct outer { struct inner in; int pad; };
    int main(void) { struct outer o; o.in.v = 42; return o.in.v; }
    '''
    assert run(src).exit_code == 42


def test_union_type_punning():
    src = r'''
    union u { int i; char bytes[4]; };
    int main(void) {
        union u v;
        v.i = 0x01020304;
        return v.bytes[0];   /* little-endian: low byte first */
    }
    '''
    assert run(src).exit_code == 4


def test_global_variables_and_initializers():
    src = r'''
    int counter = 5;
    int table[4] = {10, 20, 30};
    int main(void) { counter += table[1] + table[3]; return counter; }
    '''
    assert run(src).exit_code == 25


def test_global_pointer_initializer():
    src = r'''
    int value = 7;
    int *gp = &value;
    int main(void) { return *gp; }
    '''
    assert run(src).exit_code == 7


def test_static_local_persists():
    src = r'''
    int tick(void) { static int n = 0; n++; return n; }
    int main(void) { tick(); tick(); return tick(); }
    '''
    assert run(src).exit_code == 3


def test_string_literal_and_strlen():
    src = 'int main(void) { return (int)strlen("hello world"); }'
    assert run(src).exit_code == 11


def test_function_pointer_table():
    src = r'''
    int add(int a, int b) { return a + b; }
    int mul(int a, int b) { return a * b; }
    int main(void) {
        int (*ops[2])(int, int);
        ops[0] = add;
        ops[1] = mul;
        return ops[0](3, 4) + ops[1](3, 4);
    }
    '''
    assert run(src).exit_code == 19


def test_double_arithmetic():
    src = r'''
    int main(void) {
        double x = 1.5, y = 2.25;
        double z = x * y + 0.125;
        return (int)(z * 8.0);   /* 3.5 * 8 = 28 */
    }
    '''
    assert run(src).exit_code == 28


def test_float_int_conversions():
    src = "int main(void) { double d = 7.9; int i = (int)d; return i; }"
    assert run(src).exit_code == 7


def test_malloc_free_reuse_pattern():
    src = r'''
    int main(void) {
        for (int i = 0; i < 50; i++) {
            int *p = (int *)malloc(64);
            p[0] = i;
            free(p);
        }
        return 0;
    }
    '''
    assert run(src).exit_code == 0


def test_calloc_zeroes():
    src = r'''
    int main(void) {
        int *p = (int *)calloc(8, sizeof(int));
        int total = 0;
        for (int i = 0; i < 8; i++) total += p[i];
        return total;
    }
    '''
    assert run(src).exit_code == 0


def test_division_by_zero_traps():
    result = compile_source("int main(void) { int z = 0; return 5 / z; }").run()
    assert result.trap is not None
    assert result.trap.kind.value == "div_by_zero"


def test_null_write_segfaults():
    result = compile_source("int main(void) { int *p = NULL; *p = 1; return 0; }").run()
    assert result.trap is not None
    assert result.trap.kind.value == "segfault"


def test_printf_formats():
    src = r'''
    int main(void) {
        printf("%d %s %c %x %05d %.2f\n", -42, "str", 65, 255, 7, 1.5);
        return 0;
    }
    '''
    result = run(src)
    assert result.output == "-42 str A ff 00007 1.50\n"


def test_gets_reads_program_input():
    src = r'''
    int main(void) {
        char buf[64];
        gets(buf);
        return (int)strlen(buf);
    }
    '''
    result = compile_source(src).run(input_data=b"hello\n")
    assert result.exit_code == 5


def test_setjmp_longjmp_roundtrip():
    src = r'''
    jmp_buf env;
    int risky(void) { longjmp(env, 42); return 0; }
    int main(void) {
        int code = setjmp(env);
        if (code) return code;
        risky();
        return -1;
    }
    '''
    assert run(src).exit_code == 42


def test_varargs_sum():
    src = r'''
    int sum_n(int n, ...) {
        va_list ap;
        va_start(&ap);
        int total = 0;
        for (int i = 0; i < n; i++) total += (int)va_arg_long(&ap);
        va_end(&ap);
        return total;
    }
    int main(void) { return sum_n(4, 10, 20, 30, 40); }
    '''
    assert run(src).exit_code == 100


def test_exit_code_propagates():
    result = compile_source("int main(void) { exit(7); return 0; }").run()
    assert result.exit_code == 7


def test_two_dimensional_array_walk():
    src = r'''
    int main(void) {
        int m[3][4];
        for (int i = 0; i < 3; i++)
            for (int j = 0; j < 4; j++)
                m[i][j] = i * 4 + j;
        int total = 0;
        for (int i = 0; i < 3; i++) total += m[i][3];
        return total;
    }
    '''
    assert run(src).exit_code == 3 + 7 + 11


def test_sizeof_values():
    src = r'''
    int main(void) {
        return sizeof(char) + sizeof(short) + sizeof(int) + sizeof(long)
             + sizeof(double) + sizeof(int *);
    }
    '''
    assert run(src).exit_code == 1 + 2 + 4 + 8 + 8 + 8
