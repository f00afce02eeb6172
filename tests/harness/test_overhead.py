"""The one cost-axis measurement path: the recorded overhead sweeps are
views over ``stats.measure`` and average with the one ``geomean``."""

import math
import pathlib
from collections import Counter

import pytest

from repro.harness import overhead, stats
from repro.harness.overhead import (
    load_report,
    run_checkopt,
    run_prove,
    run_temporal_overhead,
)
from repro.softbound.config import FULL_SHADOW
from repro.vm.costs import geomean

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

VIEWS = [
    (run_checkopt, "BENCH_checkopt.json"),
    (run_prove, "BENCH_prove.json"),
    (run_temporal_overhead, "BENCH_temporal.json"),
]


class TestGeomean:
    def test_zero_overhead_row_averages_exactly(self):
        # A fully proven workload has exactly 0% overhead: the ratio 1.0.
        assert (geomean([1.0, 1.1]) - 1.0) * 100.0 == pytest.approx(
            (math.sqrt(1.1) - 1.0) * 100.0)
        rows = {"proved": {"pct": 0.0}, "other": {"pct": 10.0}}
        assert overhead._geomean_pct(rows, "pct") == pytest.approx(
            4.881, abs=1e-3)

    def test_is_the_geometric_mean_of_ratios(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean(iter([1.5])) == pytest.approx(1.5)
        assert geomean([]) == 1.0


@pytest.mark.parametrize("view, path", VIEWS,
                         ids=[path for _, path in VIEWS])
def test_hmmer_row_matches_recorded(view, path):
    recorded = load_report(REPO_ROOT / path)["workloads"]["hmmer"]
    assert view(["hmmer"])["workloads"]["hmmer"] == recorded


def test_views_share_each_measurement(monkeypatch):
    """All three reports together compile and run each (config, opt
    level) of a workload once: the shared baseline and ``spatial -O1``
    come from the ``measure()`` cache after their first use."""
    monkeypatch.setattr(stats, "_MEASUREMENT_CACHE", {})
    builds = Counter()
    compile_source = stats.compile_source

    def counting(source, profile=None, optimize=1, **kwargs):
        builds[(profile.config, optimize)] += 1
        return compile_source(source, profile=profile, optimize=optimize,
                              **kwargs)

    monkeypatch.setattr(stats, "compile_source", counting)
    for view, _ in VIEWS:
        view(["hmmer"])
    assert builds[(None, 1)] == 1
    assert builds[(FULL_SHADOW, 1)] == 1
    assert set(builds.values()) == {1}
    assert len(builds) == 6  # + loop passes off, -O0, -O2, temporal
