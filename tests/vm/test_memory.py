"""Simulated memory unit tests."""

import os

import pytest

from repro.vm.errors import Trap, TrapKind
from repro.vm.memory import HEAP_BASE, Memory


@pytest.fixture
def mem():
    return Memory(heap_size=1 << 20, stack_size=1 << 16)


def test_heap_roundtrip_bytes(mem):
    addr = mem.malloc(64)
    mem.write(addr, b"hello")
    assert mem.read(addr, 5) == b"hello"


def test_int_codec_signed(mem):
    addr = mem.malloc(16)
    mem.write_int(addr, -5, 4)
    assert mem.read_int(addr, 4, signed=True) == -5
    assert mem.read_int(addr, 4, signed=False) == (1 << 32) - 5


def test_int_codec_widths(mem):
    addr = mem.malloc(16)
    for width, value in [(1, -128), (2, 32767), (4, -(1 << 31)), (8, 1 << 62)]:
        mem.write_int(addr, value, width)
        assert mem.read_int(addr, width, signed=True) == value


def test_little_endian_layout(mem):
    addr = mem.malloc(8)
    mem.write_int(addr, 0x0102030405060708, 8)
    assert mem.read(addr, 1) == b"\x08"


def test_f64_codec(mem):
    addr = mem.malloc(8)
    mem.write_f64(addr, 3.25)
    assert mem.read_f64(addr) == 3.25


def test_null_dereference_segfaults(mem):
    with pytest.raises(Trap) as exc:
        mem.read(0, 4)
    assert exc.value.kind is TrapKind.SEGFAULT


def test_unmapped_address_segfaults(mem):
    with pytest.raises(Trap):
        mem.write(0xDEAD_BEEF_0000, b"x")


def test_read_straddling_segment_end_traps(mem):
    end = mem.heap.end
    with pytest.raises(Trap):
        mem.read(end - 2, 4)


def test_malloc_alignment(mem):
    for _ in range(5):
        assert mem.malloc(13) % 16 == 0


def test_malloc_zero_returns_null(mem):
    assert mem.malloc(0) == 0


def test_adjacent_allocations_allow_silent_overflow(mem):
    """The property the whole evaluation rests on: an overflow out of one
    heap block lands in mapped memory (the next block's header/payload)
    and does NOT trap — plain hardware doesn't catch spatial bugs."""
    a = mem.malloc(16)
    b = mem.malloc(16)
    mem.write(a, b"A" * 48)  # spills well past a's 16 bytes
    assert mem.read(a, 1) == b"A"  # no trap occurred


def test_free_and_reuse(mem):
    a = mem.malloc(100)
    mem.free(a)
    b = mem.malloc(100)
    assert b == a  # first-fit reuses the freed block


def test_free_null_is_noop(mem):
    mem.free(0)


def test_free_coalescing(mem):
    blocks = [mem.malloc(1000) for _ in range(3)]
    for block in blocks:
        mem.free(block)
    # After coalescing, a larger-than-any-single-block request fits.
    big = mem.malloc(2800)
    assert big is not None and big != 0


def test_out_of_memory_returns_none(mem):
    assert mem.malloc(1 << 30) is None


def test_allocation_size_tracking(mem):
    addr = mem.malloc(37)
    assert mem.allocation_size(addr) == 37
    mem.free(addr)
    assert mem.allocation_size(addr) is None


def test_peak_heap_accounting(mem):
    a = mem.malloc(1024)
    peak_after_first = mem.peak_heap
    mem.free(a)
    mem.malloc(16)
    assert mem.peak_heap == peak_after_first  # peak is sticky


def test_read_cstring(mem):
    addr = mem.malloc(16)
    mem.write(addr, b"abc\x00def")
    assert mem.read_cstring(addr) == b"abc"


def test_stack_segment_mapped(mem):
    top = mem.stack.end - 8
    mem.write_ptr(top, 0x1234)
    assert mem.read_ptr(top) == 0x1234


def test_read_cstring_large_heap_allocation():
    """Regression for the O(n) per-byte segment walk: a string spanning
    a large heap allocation is read with in-segment scanning, and the
    result is exact (content, terminator position)."""
    big = Memory()  # default 32 MiB heap
    size = 512 * 1024
    addr = big.malloc(size + 1)
    payload = bytes((i % 251) + 1 for i in range(size))  # no NUL bytes
    big.write(addr, payload + b"\x00")
    assert big.read_cstring(addr, limit=1 << 21) == payload
    # A read starting mid-string sees the tail.
    assert big.read_cstring(addr + size - 5, limit=1 << 21) == payload[-5:]


def test_read_cstring_unterminated_hits_limit(mem):
    addr = mem.malloc(64)
    mem.write(addr, b"A" * 64)  # heap beyond is zero, so craft a tight limit
    with pytest.raises(Trap) as exc:
        mem.read_cstring(addr, limit=32)
    assert exc.value.kind is TrapKind.SEGFAULT
    assert "unterminated" in exc.value.detail


def test_read_cstring_running_off_segment_traps_at_exact_address(mem):
    end = mem.heap.end
    start = end - 16
    mem.write(start, b"B" * 16)  # no terminator before the segment end
    with pytest.raises(Trap) as exc:
        mem.read_cstring(start)
    assert exc.value.kind is TrapKind.SEGFAULT
    assert exc.value.address == end  # first unmapped byte


def test_read_cstring_nul_at_limit_boundary_is_unterminated(mem):
    addr = mem.malloc(32)
    mem.write(addr, b"C" * 8 + b"\x00")
    # NUL sits at offset 8 == limit: the bounded scan must not see it.
    with pytest.raises(Trap):
        mem.read_cstring(addr, limit=8)
    assert mem.read_cstring(addr, limit=9) == b"C" * 8


# -- demand-zero segments ---------------------------------------------------
#
# Segments are private anonymous mappings: zero on first touch, trapping at
# the exact address past their end, and copy-on-write across fork().


def _segments(mem):
    return {"heap": mem.heap, "stack": mem.stack,
            "globals": mem.map_globals(4096)}


@pytest.mark.parametrize("name", ["heap", "stack", "globals"])
def test_fresh_segment_reads_zero_at_both_ends(mem, name):
    seg = _segments(mem)[name]
    assert mem.read(seg.base, 1) == b"\x00"
    assert mem.read(seg.end - 1, 1) == b"\x00"
    assert mem.read_int(seg.end - 8, 8) == 0
    assert mem.scalar_reader(8, False)(seg.base) == 0


@pytest.mark.parametrize("name", ["heap", "stack", "globals"])
def test_access_straddling_segment_end_traps_at_exact_address(mem, name):
    seg = _segments(mem)[name]
    addr = seg.end - 4
    accesses = [
        lambda: mem.read(addr, 8),
        lambda: mem.write(addr, b"12345678"),
        lambda: mem.read_int(addr, 8),
        lambda: mem.write_int(addr, 1, 8),
        lambda: mem.read_f64(addr),
        lambda: mem.scalar_reader(8, False)(addr),
        lambda: mem.scalar_writer(8)(addr, 1),
    ]
    for access in accesses:
        with pytest.raises(Trap) as exc:
            access()
        assert exc.value.kind is TrapKind.SEGFAULT
        assert exc.value.address == addr
    # The in-bounds tail is still usable and untouched by the failed writes.
    assert mem.read(addr, 4) == b"\x00" * 4


@pytest.mark.parametrize("name", ["heap", "stack", "globals"])
def test_read_cstring_at_segment_edges(mem, name):
    seg = _segments(mem)[name]
    # Untouched memory is a run of terminators: an empty string.
    assert mem.read_cstring(seg.end - 1) == b""
    mem.write(seg.base, b"edge")
    assert mem.read_cstring(seg.base) == b"edge"
    mem.write(seg.end - 3, b"xyz")
    with pytest.raises(Trap) as exc:
        mem.read_cstring(seg.end - 3)
    assert exc.value.kind is TrapKind.SEGFAULT
    assert exc.value.address == seg.end


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_segments_are_private_across_fork(mem):
    addr = mem.malloc(16)
    mem.write(addr, b"parent")
    pid = os.fork()
    if pid == 0:  # child: sees the parent's bytes, then overwrites them
        ok = mem.read(addr, 6) == b"parent"
        mem.write(addr, b"child!")
        mem.write_int(mem.stack.end - 8, 7, 8)
        os._exit(0 if ok and mem.read(addr, 6) == b"child!" else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert mem.read(addr, 6) == b"parent"
    assert mem.read_int(mem.stack.end - 8, 8) == 0


def _rss_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError("no VmRSS line")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc")
def test_fresh_default_memories_cost_no_resident_memory():
    """50 default address spaces (36 MiB of heap and stack each) stay
    almost entirely non-resident until touched."""
    before = _rss_kib()
    memories = [Memory() for _ in range(50)]
    grown_mib = (_rss_kib() - before) / 1024
    assert len(memories) == 50
    assert grown_mib < 64
