"""Library-wrapper checking (paper Section 5.2).

"For libraries that have not (yet) been transformed by SoftBound,
library function wrappers ... may be employed."  Our VM's libc plays
that wrapper role: each routine checks the full extent it will touch,
once, before touching it.  These tests exercise every checked wrapper
in both directions (overflow caught / in-bounds untouched) and confirm
metadata propagation through pointer-returning wrappers.
"""

import pytest

from repro.api import compile_source
from repro.softbound.config import FULL_SHADOW, STORE_SHADOW
from repro.vm.errors import TrapKind


def run_full(source):
    return compile_source(source, profile=FULL_SHADOW).run()


def spatial(result):
    return (result.trap is not None
            and result.trap.kind is TrapKind.SPATIAL_VIOLATION)


class TestStringWrappers:
    def test_strcpy_overflow_detected(self):
        result = run_full(r'''
        int main(void) { char b[4]; strcpy(b, "too long for four"); return 0; }
        ''')
        assert spatial(result)
        assert "strcpy destination" in result.trap.detail

    def test_strcpy_exact_fit_allowed(self):
        result = run_full(r'''
        int main(void) { char b[6]; strcpy(b, "hello"); return b[4]; }
        ''')
        assert result.trap is None
        assert result.exit_code == ord("o")

    def test_strcpy_source_overread_detected(self):
        # Copy from a pointer whose bounds were shrunk to a 2-byte field:
        # reading the unterminated "string" runs off the field.
        result = run_full(r'''
        struct rec { char tag[2]; char rest[14]; };
        int main(void) {
            struct rec r;
            for (int i = 0; i < 16; i++) ((char *)&r)[i] = 'a';
            r.rest[13] = 0;
            char out[32];
            strcpy(out, r.tag);       /* source is only 2 bytes */
            return 0;
        }
        ''')
        assert spatial(result)
        assert "strcpy source" in result.trap.detail

    def test_strncpy_respects_n(self):
        result = run_full(r'''
        int main(void) { char b[4]; strncpy(b, "toolong", 4); return b[0]; }
        ''')
        assert result.trap is None
        assert result.exit_code == ord("t")

    def test_strncpy_overflow_detected(self):
        result = run_full(r'''
        int main(void) { char b[4]; strncpy(b, "toolong", 8); return 0; }
        ''')
        assert spatial(result)

    def test_strcat_overflow_detected(self):
        result = run_full(r'''
        int main(void) {
            char b[8];
            strcpy(b, "abcd");
            strcat(b, "efghij");   /* 4 + 6 + NUL > 8 */
            return 0;
        }
        ''')
        assert spatial(result)
        assert "strcat" in result.trap.detail

    def test_strcat_in_bounds_allowed(self):
        result = run_full(r'''
        int main(void) {
            char b[8];
            strcpy(b, "ab");
            strcat(b, "cd");
            return (int)strlen(b);
        }
        ''')
        assert result.trap is None
        assert result.exit_code == 4

    def test_gets_overflow_detected(self):
        source = r'''
        int main(void) { char b[8]; gets(b); return 0; }
        '''
        result = compile_source(source, profile=FULL_SHADOW).run(
            input_data=b"exceedingly-long-line\n")
        assert spatial(result)
        assert "gets" in result.trap.detail

    def test_gets_short_line_allowed(self):
        source = r'''
        int main(void) { char b[8]; gets(b); return b[0]; }
        '''
        result = compile_source(source, profile=FULL_SHADOW).run(
            input_data=b"ok\n")
        assert result.trap is None
        assert result.exit_code == ord("o")


class TestMemoryWrappers:
    def test_memcpy_overflow_detected(self):
        result = run_full(r'''
        int main(void) {
            int src[8]; int dst[4];
            memcpy(dst, src, 8 * sizeof(int));
            return 0;
        }
        ''')
        assert spatial(result)
        assert "memcpy destination" in result.trap.detail

    def test_memcpy_source_overread_detected(self):
        result = run_full(r'''
        int main(void) {
            int src[4]; int dst[8];
            memcpy(dst, src, 8 * sizeof(int));
            return 0;
        }
        ''')
        assert spatial(result)
        assert "memcpy source" in result.trap.detail

    def test_memmove_checked_like_memcpy(self):
        result = run_full(r'''
        int main(void) {
            int a[4];
            memmove(a, a + 2, 4 * sizeof(int));  /* reads past a[3] */
            return 0;
        }
        ''')
        assert spatial(result)

    def test_memset_overflow_detected(self):
        result = run_full(r'''
        int main(void) { char b[16]; memset(b, 0, 32); return 0; }
        ''')
        assert spatial(result)
        assert "memset" in result.trap.detail

    def test_memset_exact_allowed(self):
        result = run_full(r'''
        int main(void) { char b[16]; memset(b, 7, 16); return b[15]; }
        ''')
        assert result.trap is None
        assert result.exit_code == 7

    def test_memcpy_copies_pointer_metadata(self):
        """Section 5.2: memcpy must carry metadata, so pointers that
        travelled through it remain dereferenceable — and bounded."""
        result = run_full(r'''
        int main(void) {
            int value = 42;
            int *src[2]; int *dst[2];
            src[0] = &value;
            memcpy(dst, src, sizeof(src));
            return *dst[0];
        }
        ''')
        assert result.trap is None
        assert result.exit_code == 42

    def test_memcpy_metadata_still_bounds_destination(self):
        result = run_full(r'''
        int main(void) {
            int arr[2];
            int *src[2]; int *dst[2];
            src[0] = arr;
            memcpy(dst, src, sizeof(src));
            dst[0][5] = 1;   /* beyond arr via the copied pointer */
            return 0;
        }
        ''')
        assert spatial(result)


class TestFormattedOutput:
    def test_sprintf_overflow_detected(self):
        result = run_full(r'''
        int main(void) {
            char b[8];
            sprintf(b, "%d-%d-%d", 1000, 2000, 3000);
            return 0;
        }
        ''')
        assert spatial(result)
        assert "sprintf" in result.trap.detail

    def test_sprintf_in_bounds_allowed(self):
        result = run_full(r'''
        int main(void) {
            char b[16];
            sprintf(b, "%d", 42);
            return b[0] - '0';
        }
        ''')
        assert result.trap is None
        assert result.exit_code == 4

    def test_snprintf_truncates_within_bounds(self):
        result = run_full(r'''
        int main(void) {
            char b[8];
            snprintf(b, 8, "%d%d%d", 1111, 2222, 3333);
            return (int)strlen(b);
        }
        ''')
        assert result.trap is None
        assert result.exit_code == 7


class TestStoreOnlyMode:
    def test_store_only_still_checks_write_wrappers(self):
        result = compile_source(
            'int main(void) { char b[4]; strcpy(b, "overflow!"); return 0; }',
            profile=STORE_SHADOW).run()
        assert spatial(result)

    def test_wrapper_checks_cost_once_per_call(self):
        """Wrappers check the whole extent once (Section 5.2), so a big
        memcpy costs O(1) checks, not one per byte."""
        source = r'''
        int main(void) {
            char a[4096]; char b[4096];
            memcpy(b, a, 4096);
            return 0;
        }
        '''
        result = run_full(source)
        assert result.trap is None
        assert result.stats.checks < 32
