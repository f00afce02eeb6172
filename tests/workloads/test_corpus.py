"""Detection matrix over the classic-bug regression corpus.

Pins, pattern by pattern, the paper's central behavioural contract:
full checking catches every spatial bug; store-only checking catches
every *write* bug and intentionally ignores pure read overflows
(Section 6.3's trade-off).
"""

import pytest

from repro.api import compile_source
from repro.softbound.config import FULL_HASH, FULL_SHADOW, STORE_SHADOW
from repro.workloads.corpus import CORPUS, all_patterns, patterns_by_access

INPUTS = {"unchecked_index_from_input": b"16\n"}


def run_pattern(pattern, softbound=None):
    return compile_source(pattern.source, profile=softbound).run(
        input_data=INPUTS.get(pattern.name, b""))


class TestCorpusShape:
    def test_eight_patterns_across_locations(self):
        locations = {p.location for p in all_patterns()}
        assert locations == {"stack", "heap", "global", "subobject"}

    def test_both_access_kinds_present(self):
        assert len(patterns_by_access("read")) >= 2
        assert len(patterns_by_access("write")) >= 5


@pytest.mark.parametrize("name", list(CORPUS), ids=list(CORPUS))
class TestPerPattern:
    def test_unprotected_run_is_silent_or_crashes_late(self, name):
        """Each bug must be *real*: unprotected, it either corrupts
        silently (observable wrong exit) or faults — never a checker
        report."""
        pattern = CORPUS[name]
        result = run_pattern(pattern)
        assert not result.detected_violation
        if pattern.silent_exit is not None and result.trap is None:
            assert result.exit_code == pattern.silent_exit

    def test_full_checking_detects(self, name):
        result = run_pattern(CORPUS[name], softbound=FULL_SHADOW)
        assert result.detected_violation, name

    def test_full_checking_hash_table_agrees(self, name):
        result = run_pattern(CORPUS[name], softbound=FULL_HASH)
        assert result.detected_violation, name

    def test_store_only_tracks_access_direction(self, name):
        pattern = CORPUS[name]
        result = run_pattern(pattern, softbound=STORE_SHADOW)
        if pattern.faulting_access == "write":
            assert result.detected_violation, name
        else:
            # Pure read overflows are the documented store-only blind
            # spot; the run must also not misfire some other way.
            assert not result.detected_violation, name


class TestAggregateClaims:
    def test_store_only_catches_all_writes_misses_all_reads(self):
        caught_writes = sum(
            1 for p in patterns_by_access("write")
            if run_pattern(p, softbound=STORE_SHADOW).detected_violation)
        caught_reads = sum(
            1 for p in patterns_by_access("read")
            if run_pattern(p, softbound=STORE_SHADOW).detected_violation)
        assert caught_writes == len(patterns_by_access("write"))
        assert caught_reads == 0

    def test_full_checking_is_complete_on_corpus(self):
        for pattern in all_patterns():
            assert run_pattern(pattern, softbound=FULL_SHADOW).detected_violation
