"""Golden equivalence: every way into the toolchain is one path.

A one-shot ``compile_source(source, config).run()`` must stay
byte-identical to the :class:`repro.api.Session` path for every
registered profile, and the rendered tables must agree with results
recomputed through a one-shot compile.
"""

import pytest

from repro.api import PROFILES, Session, all_profiles, compile_source

CLEAN = r'''
int main(void) {
    int a[8];
    long total = 0;
    for (int i = 0; i < 8; i++) a[i] = i * 3;
    for (int i = 0; i < 8; i++) total += a[i];
    printf("total=%ld\n", total);
    return 0;
}
'''

OVERFLOW = r'''
int main(void) {
    char b[4];
    strcpy(b, "definitely too long");
    return 0;
}
'''


def _one_shot(source, profile):
    """The raw-config compile plus per-run observers, bypassing the
    Session cache and the registered profile lookup."""
    return compile_source(source, profile.config).run(
        observers=profile.make_observers())


@pytest.mark.parametrize("profile", all_profiles(), ids=lambda p: p.name)
def test_shim_equals_session_on_clean_program(profile):
    one_shot = _one_shot(CLEAN, profile)
    facade = Session().run(CLEAN, profile=profile)
    assert facade.exit_code == one_shot.exit_code
    assert facade.output == one_shot.output
    assert str(facade.trap) == str(one_shot.trap)
    assert facade.stats.cost == one_shot.stats.cost
    assert facade.stats.checks == one_shot.stats.checks
    assert facade.stats.metadata_loads == one_shot.stats.metadata_loads


@pytest.mark.parametrize("profile", all_profiles(), ids=lambda p: p.name)
def test_shim_equals_session_on_overflow(profile):
    one_shot = _one_shot(OVERFLOW, profile)
    facade = Session().run(OVERFLOW, profile=profile)
    assert facade.exit_code == one_shot.exit_code
    assert str(facade.trap) == str(one_shot.trap)
    assert facade.detected_violation == one_shot.detected_violation
    assert facade.stats.cost == one_shot.stats.cost


class TestTablesRideTheFacade:
    def test_attack_detection_matches_legacy_recomputation(self):
        from repro.harness.tables import attack_detection
        from repro.softbound.config import FULL_SHADOW, STORE_SHADOW
        from repro.workloads.attacks import all_attacks

        attack = next(iter(all_attacks()))
        plain = compile_source(attack.source).run()
        full = compile_source(attack.source, FULL_SHADOW).run()
        store = compile_source(attack.source, STORE_SHADOW).run()
        assert attack_detection(attack.name) == (
            plain.attack_succeeded, full.detected_violation,
            store.detected_violation)

    def test_temporal_detection_matches_legacy_recomputation(self):
        from repro.harness.temporal import temporal_detection
        from repro.softbound.config import TEMPORAL_SHADOW
        from repro.vm.errors import TrapKind
        from repro.workloads.temporal_attacks import TEMPORAL_ATTACKS

        name = "uaf_read"
        attack = TEMPORAL_ATTACKS[name]
        plain = compile_source(attack.source).run()
        temporal = compile_source(attack.source, TEMPORAL_SHADOW).run()
        exploited, _, detected = temporal_detection(name)
        assert exploited == bool(plain.attack_succeeded)
        assert detected == (temporal.trap is not None
                            and temporal.trap.kind
                            is TrapKind.TEMPORAL_VIOLATION)

    def test_temporal_paper_block_is_policy_layer_invariant(self):
        """The lock-and-key rows of the temporal table are produced
        through the policy layer now; their content must still equal a
        recomputation through a one-shot compile for every attack, and any
        extension-policy rows must render strictly *below* the paper
        block (pre-existing output stays a byte-identical prefix)."""
        from repro.harness.tables import render_temporal, temporal_matrix
        from repro.softbound.config import TEMPORAL_SHADOW
        from repro.vm.errors import TrapKind
        from repro.workloads.temporal_attacks import TEMPORAL_ATTACKS

        text = render_temporal()
        paper_block = text.split("\n\nExtension policies")[0]
        for name in TEMPORAL_ATTACKS:
            assert any(line.startswith(name)
                       for line in paper_block.splitlines())
        for name, (_, _, detected) in temporal_matrix().items():
            one_shot = compile_source(TEMPORAL_ATTACKS[name].source,
                                    TEMPORAL_SHADOW).run()
            assert detected == (one_shot.trap is not None
                                and one_shot.trap.kind
                                is TrapKind.TEMPORAL_VIOLATION)

    def test_capability_paper_rows_are_policy_layer_invariant(self):
        """The paper's six Table 1 rows still match the pinned cells
        with the policy layer underneath, and extension rows do not
        leak into the paper block."""
        from repro.baselines.capabilities import (
            PAPER_TABLE1,
            capability_matrix,
        )

        rows = capability_matrix(include_extensions=False)
        assert [r.scheme for r in rows] == list(PAPER_TABLE1)
        for row in rows:
            assert (row.no_source_change, row.complete_subobject,
                    row.layout_compatible, row.arbitrary_casts,
                    row.dynamic_linking) == PAPER_TABLE1[row.scheme]
        extended = capability_matrix()
        assert [r.scheme for r in extended[:len(rows)]] \
            == [r.scheme for r in rows]
        assert any(r.scheme == "RedZone" for r in extended[len(rows):])

    def test_rendered_table_consumes_facade_memos(self):
        """`python -m repro tables temporal` output is produced from the
        same memoized facade results the detection matrix exposes."""
        import io

        from repro.cli import main
        from repro.harness.tables import render_temporal, temporal_matrix

        out, err = io.StringIO(), io.StringIO()
        assert main(["tables", "temporal"], out, err) == 0
        assert out.getvalue().rstrip("\n") == render_temporal()
        for name, (_, _, detected) in temporal_matrix().items():
            detected_cell = "yes" if detected else "NO"
            assert any(name in line and detected_cell in line
                       for line in out.getvalue().splitlines())
