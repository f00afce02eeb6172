"""Lock-and-key temporal subsystem: detection, transparency, lock space.

The acceptance contract: every temporal attack family traps with a
precise temporal_violation under ``SoftBoundConfig(temporal=True)``,
while every previously-passing spatial workload still runs trap-free
with identical output — the temporal pass may cost, never change, a
correct program.
"""

import pytest

from repro.api import compile_source
from repro.softbound.config import (
    FULL_SHADOW,
    TEMPORAL_HASH,
    TEMPORAL_SHADOW,
    SoftBoundConfig,
)
from repro.temporal import GLOBAL_KEY, GLOBAL_LOCK, LockSpace
from repro.vm.costs import CostStats
from repro.vm.errors import TemporalTrap, Trap, TrapKind
from repro.workloads.programs import WORKLOADS
from repro.workloads.temporal_attacks import TEMPORAL_ATTACKS, all_temporal_attacks


# -- the lock space -----------------------------------------------------------

class TestLockSpace:
    def test_acquire_release_cycle(self):
        ls = LockSpace()
        stats = CostStats()
        key, slot = ls.acquire(stats)
        assert ls.live(key, slot)
        ls.release(slot, stats)
        assert not ls.live(key, slot)

    def test_keys_never_reused_across_slot_recycling(self):
        ls = LockSpace()
        key1, slot1 = ls.acquire()
        ls.release(slot1)
        key2, slot2 = ls.acquire()
        assert slot2 == slot1  # the slot was recycled...
        assert key2 != key1    # ...the key was not
        assert ls.live(key2, slot2)
        assert not ls.live(key1, slot1)

    def test_global_lock_is_immortal(self):
        ls = LockSpace()
        assert ls.live(GLOBAL_KEY, GLOBAL_LOCK)
        ls.release(GLOBAL_LOCK)
        assert ls.live(GLOBAL_KEY, GLOBAL_LOCK)

    def test_invalid_key_never_live(self):
        ls = LockSpace()
        assert not ls.live(0, GLOBAL_LOCK)
        assert not ls.live(0, 12345)

    def test_charges_cost_model(self):
        stats = CostStats()
        ls = LockSpace()
        _, slot = ls.acquire(stats)
        ls.release(slot, stats)
        assert stats.cost > 0


# -- detection ----------------------------------------------------------------

@pytest.mark.parametrize("name", list(TEMPORAL_ATTACKS))
def test_attack_detected_with_temporal_checking(name):
    attack = TEMPORAL_ATTACKS[name]
    result = compile_source(attack.source, profile=TEMPORAL_SHADOW).run()
    assert result.trap is not None, f"{name}: no trap"
    assert result.trap.kind is TrapKind.TEMPORAL_VIOLATION, result.trap
    assert result.trap.source == "softbound"
    assert result.detected_violation


@pytest.mark.parametrize("name", list(TEMPORAL_ATTACKS))
def test_attack_detected_under_hash_table_scheme(name):
    """The widened entry rides both disjoint facilities."""
    attack = TEMPORAL_ATTACKS[name]
    result = compile_source(attack.source, profile=TEMPORAL_HASH).run()
    assert result.trap is not None and \
        result.trap.kind is TrapKind.TEMPORAL_VIOLATION


@pytest.mark.parametrize("name", list(TEMPORAL_ATTACKS))
def test_attack_invisible_or_late_for_spatial_only(name):
    """Spatial-only checking never reports a *temporal* violation:
    either the attack sails through, or (uaf_write) a downstream
    encoding check catches the consequence, not the dangling access."""
    attack = TEMPORAL_ATTACKS[name]
    result = compile_source(attack.source, profile=FULL_SHADOW).run()
    assert result.trap is None or \
        result.trap.kind is not TrapKind.TEMPORAL_VIOLATION


def test_attacks_genuinely_work_unprotected():
    exploited = 0
    for attack in all_temporal_attacks():
        result = compile_source(attack.source).run()
        assert result.trap is None, f"{attack.name} crashed: {result.trap}"
        if result.attack_succeeded:
            exploited += 1
    # double_free is silently ignored by the allocator; every other
    # attack observably exploits the unprotected VM.
    assert exploited >= len(all_temporal_attacks()) - 1


# -- transparency -------------------------------------------------------------

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workloads_run_identically_under_temporal(name):
    workload = WORKLOADS[name]
    plain = compile_source(workload.source).run()
    temporal = compile_source(workload.source, profile=TEMPORAL_SHADOW).run()
    assert temporal.trap is None, f"{name}: {temporal.trap}"
    assert temporal.exit_code == plain.exit_code == workload.expected_exit
    assert temporal.output == plain.output


def test_temporal_costs_more_than_spatial():
    source = WORKLOADS["treeadd"].source
    spatial = compile_source(source, profile=FULL_SHADOW).run()
    temporal = compile_source(source, profile=TEMPORAL_SHADOW).run()
    assert temporal.stats.temporal_checks > 0
    assert spatial.stats.temporal_checks == 0
    assert temporal.stats.cost > spatial.stats.cost


# -- targeted behaviours ------------------------------------------------------

def test_free_then_spatial_out_of_bounds_still_spatial():
    """The spatial check precedes the temporal one: a pointer that is
    both stale *and* out of bounds reports the spatial violation."""
    source = r'''
int main(void) {
    long *p = (long *)malloc(16);
    free(p);
    p[5] = 1;      /* stale AND out of bounds */
    return 0;
}
'''
    result = compile_source(source, profile=TEMPORAL_SHADOW).run()
    assert result.trap.kind is TrapKind.SPATIAL_VIOLATION


def test_in_bounds_uaf_is_temporal():
    source = r'''
int main(void) {
    long *p = (long *)malloc(16);
    free(p);
    p[1] = 1;      /* stale, in old bounds */
    return 0;
}
'''
    result = compile_source(source, profile=TEMPORAL_SHADOW).run()
    assert result.trap.kind is TrapKind.TEMPORAL_VIOLATION


def test_stale_free_of_reused_address_traps_and_spares_new_owner():
    """A dangling free whose address now belongs to a *new* allocation
    must trap as the stale access it is — never release the new
    owner's lock (which would false-positive the next valid access)."""
    source = r'''
int main(void) {
    char *a = (char *)malloc(24);
    free(a);
    char *b = (char *)malloc(24);   /* first-fit: a's address */
    b[0] = 'b';
    free(a);                        /* stale free through dead pointer */
    b[1] = 'c';                     /* must never be reached */
    return 0;
}
'''
    result = compile_source(source, profile=TEMPORAL_SHADOW).run()
    assert result.trap is not None
    assert result.trap.kind is TrapKind.TEMPORAL_VIOLATION
    # The trap is the free itself, not a bogus violation on b[1].
    assert "free" in result.trap.detail


def test_free_of_stack_pointer_traps():
    """A live lock is not enough: the address must be a heap
    allocation (frame locks are live until return)."""
    source = r'''
int main(void) {
    long local[2];
    long *p = local;
    free(p);
    return 0;
}
'''
    result = compile_source(source, profile=TEMPORAL_SHADOW).run()
    assert result.trap is not None
    assert result.trap.kind is TrapKind.TEMPORAL_VIOLATION


def test_libc_wrapper_checks_temporal():
    """Library wrappers check liveness once up front, like bounds."""
    source = r'''
int main(void) {
    char *buf = (char *)malloc(32);
    free(buf);
    strcpy(buf, "stale");     /* UAF through the wrapper */
    return 0;
}
'''
    result = compile_source(source, profile=TEMPORAL_SHADOW).run()
    assert result.trap is not None
    assert result.trap.kind is TrapKind.TEMPORAL_VIOLATION


def test_pointer_through_memory_carries_temporal_metadata():
    """The widened table entry: a pointer stored to memory and loaded
    back later still traps after its allocation dies."""
    source = r'''
long **cell;
int main(void) {
    cell = (long **)malloc(8);
    long *obj = (long *)malloc(16);
    *cell = obj;              /* pointer through memory */
    free(obj);
    long *stale = *cell;      /* reload: key/lock come from the table */
    *stale = 9;
    return 0;
}
'''
    result = compile_source(source, profile=TEMPORAL_SHADOW).run()
    assert result.trap is not None
    assert result.trap.kind is TrapKind.TEMPORAL_VIOLATION


def test_globals_are_immortal():
    source = r'''
int cell = 5;
int *alias = &cell;
int main(void) {
    for (int i = 0; i < 4; i++) *alias += i;
    printf("%d\n", cell);
    return cell;
}
'''
    result = compile_source(source, profile=TEMPORAL_SHADOW).run()
    assert result.trap is None
    assert result.exit_code == 11


def test_temporal_trap_pickles_roundtrip():
    """The parallel harness ships traps across process boundaries."""
    import pickle

    trap = TemporalTrap(TrapKind.TEMPORAL_VIOLATION, "stale", address=0x10,
                        source="softbound")
    clone = pickle.loads(pickle.dumps(trap))
    assert isinstance(clone, TemporalTrap)
    assert clone.kind is TrapKind.TEMPORAL_VIOLATION
    assert clone.detail == "stale" and clone.address == 0x10


def test_temporal_requires_softbound_variant():
    from repro.softbound.runtime import SoftBoundRuntime

    with pytest.raises(ValueError):
        SoftBoundRuntime(SoftBoundConfig(temporal=True, variant="mscc"))


def test_label_distinguishes_temporal():
    assert TEMPORAL_SHADOW.label == "ShadowSpace-Complete-Temporal"
    assert FULL_SHADOW.label == "ShadowSpace-Complete"
