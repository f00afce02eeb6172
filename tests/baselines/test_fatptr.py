"""Inline fat-pointer metadata baselines (paper Sections 2.2/3.4).

The experiment Section 3.4 argues from: smash an in-memory pointer
through a legally-bounded wild-cast write, then dereference it.

* naive inline metadata (SafeC-style): the smash also rewrites the
  adjacent base/bound words — attacker-manufactured bounds, dereference
  sails through (**bypass**);
* WILD tags (CCured-style): the smash clears the slot's tag, the pointer
  load yields NULL bounds, the dereference traps (**safe**) — but every
  store pays the tag-update cost;
* SoftBound's disjoint metadata: program stores can't touch the table at
  all; the stale (honest) bounds reject the forged value (**safe**),
  with no per-store cost.
"""

from repro.baselines.fatptr import (
    NAIVE_FATPTR_CONFIG,
    WILD_FATPTR_CONFIG,
    InlineFatPointerMetadata,
)
from repro.api import compile_source
from repro.softbound.config import FULL_SHADOW
from repro.vm.costs import CostStats
from repro.vm.errors import TrapKind

#: g.p points at `secret`; the wild-cast write w[1] = &target is inside
#: g's legal bounds but lands exactly on the pointer slot.  *g.p = 99
#: then tries to write through the smashed pointer.
POINTER_SMASH = r'''
struct gadget { long buf; int *p; };
struct gadget g;
int secret = 7;
int target = 1;

int main(void) {
    g.p = &secret;
    long *w = (long *)&g;          /* legal: spans the whole struct */
    w[1] = (long)&target;          /* smashes g.p, stays in bounds  */
    *g.p = 99;                     /* deref of the forged pointer   */
    return target;
}
'''


class TestFacilityUnit:
    def test_store_then_load_roundtrip(self):
        stats = CostStats()
        facility = InlineFatPointerMetadata(tagged=False)
        facility.store(0x1000, 0x2000, 0x2040, stats)
        assert facility.load(0x1000, stats) == (0x2000, 0x2040)

    def test_naive_data_store_manufactures_bounds(self):
        stats = CostStats()
        facility = InlineFatPointerMetadata(tagged=False)
        facility.store(0x1000, 0x2000, 0x2040, stats)
        facility.on_program_store(0x1000, 8, stats)
        base, bound = facility.load(0x1000, stats)
        assert bound - base > 1 << 60  # permissive: attacker's choice
        assert facility.corrupted_slots == 1

    def test_wild_data_store_clears_tag(self):
        stats = CostStats()
        facility = InlineFatPointerMetadata(tagged=True)
        facility.store(0x1000, 0x2000, 0x2040, stats)
        facility.on_program_store(0x1000, 8, stats)
        assert facility.load(0x1000, stats) == (0, 0)

    def test_wild_pointer_restore_resets_tag(self):
        stats = CostStats()
        facility = InlineFatPointerMetadata(tagged=True)
        facility.store(0x1000, 0x2000, 0x2040, stats)
        facility.on_program_store(0x1000, 8, stats)
        facility.store(0x1000, 0x3000, 0x3040, stats)
        assert facility.load(0x1000, stats) == (0x3000, 0x3040)

    def test_partial_overlap_also_corrupts(self):
        stats = CostStats()
        facility = InlineFatPointerMetadata(tagged=False)
        facility.store(0x1000, 0x2000, 0x2040, stats)
        facility.on_program_store(0x1004, 2, stats)  # 2 bytes into the slot
        base, bound = facility.load(0x1000, stats)
        assert (base, bound) != (0x2000, 0x2040)

    def test_unrelated_store_leaves_entry_alone(self):
        stats = CostStats()
        facility = InlineFatPointerMetadata(tagged=False)
        facility.store(0x1000, 0x2000, 0x2040, stats)
        facility.on_program_store(0x5000, 64, stats)
        assert facility.load(0x1000, stats) == (0x2000, 0x2040)

    def test_wild_charges_tag_update_on_every_store(self):
        stats = CostStats()
        facility = InlineFatPointerMetadata(tagged=True)
        before = stats.cost
        for i in range(10):
            facility.on_program_store(0x9000 + i * 8, 8, stats)
        assert stats.cost - before >= 10


class TestPointerSmashExperiment:
    def test_naive_inline_is_bypassed(self):
        result = compile_source(POINTER_SMASH, profile=NAIVE_FATPTR_CONFIG).run()
        assert result.trap is None        # the checker waved it through
        assert result.exit_code == 99     # target was overwritten

    def test_wild_tags_stop_the_forged_dereference(self):
        result = compile_source(POINTER_SMASH, profile=WILD_FATPTR_CONFIG).run()
        assert result.trap is not None
        assert result.trap.kind is TrapKind.SPATIAL_VIOLATION

    def test_disjoint_softbound_stops_it_too(self):
        result = compile_source(POINTER_SMASH, profile=FULL_SHADOW).run()
        assert result.trap is not None
        assert result.trap.kind is TrapKind.SPATIAL_VIOLATION

    def test_unprotected_attack_succeeds(self):
        result = compile_source(POINTER_SMASH).run()
        assert result.trap is None
        assert result.exit_code == 99


class TestTransparencyAndCost:
    SAFE = r'''
    int main(void) {
        int *p = (int *)malloc(4 * sizeof(int));
        int total = 0;
        for (int i = 0; i < 4; i++) { p[i] = i; total += p[i]; }
        char text[16];
        strcpy(text, "hello");
        return total + (int)strlen(text);
    }
    '''

    def test_both_variants_transparent_on_safe_code(self):
        for config in (NAIVE_FATPTR_CONFIG, WILD_FATPTR_CONFIG):
            result = compile_source(self.SAFE, profile=config).run()
            assert result.trap is None
            assert result.exit_code == 11

    def test_wild_costs_more_than_naive_and_disjoint(self):
        """Section 3.4: 'all stores to a WILD object must update the
        metadata bits, adding runtime overhead'."""
        naive = compile_source(self.SAFE, profile=NAIVE_FATPTR_CONFIG).run()
        wild = compile_source(self.SAFE, profile=WILD_FATPTR_CONFIG).run()
        disjoint = compile_source(self.SAFE, profile=FULL_SHADOW).run()
        assert wild.stats.cost > naive.stats.cost
        assert wild.stats.cost > disjoint.stats.cost
