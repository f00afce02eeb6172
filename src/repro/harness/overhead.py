"""The recorded cost-axis overhead sweeps: three report views over
:func:`repro.harness.stats.measure`.

Each view reads per-workload measurements (memoized, shared between
views and with Figure 2) and reports the paper's Figure 2 metric,
``cost(instrumented)/cost(baseline) − 1`` as a percentage, for one
comparison.  Everything is simulated cost-model units, deterministic
on every host, so the recorded reports are gated exactly by CI:

* :func:`run_checkopt` — ``BENCH_checkopt.json``: the full-shadow
  build with the loop passes (LICM + guarded check widening) off vs on.
* :func:`run_prove` — ``BENCH_prove.json``: ``-O1`` vs ``-O2`` (the
  solver-backed prove pass).  ``-O0``/``-O1``/``-O2`` must all behave
  like the baseline, and every ``-O2`` deletion certificate is
  replayed inside the measurement.
* :func:`run_temporal_overhead` — ``BENCH_temporal.json``:
  spatial-only vs spatial+temporal.

Every instrumented measurement must behave exactly like the
uninstrumented baseline (:func:`~repro.harness.stats.measure_equivalent`),
and every average is :func:`repro.vm.costs.geomean` over the cost
ratios behind the per-workload percentages.
"""

import json
from dataclasses import replace

from ..softbound.config import FULL_SHADOW, TEMPORAL_SHADOW
from ..vm.costs import geomean
from ..workloads.programs import WORKLOADS
from .stats import measure_equivalent

#: Workloads dominated by counted array loops — the loop passes' target
#: population and the acceptance basis for the recorded reductions.  The
#: pointer-chasing Olden analogues execute data-dependent access chains
#: per node and are structurally out of reach of affine widening.
LOOP_WORKLOADS = ("go", "lbm", "hmmer", "compress", "ijpeg", "libquantum")

#: Acceptance floor: dynamic sb_check executions ``-O2`` deletes beyond
#: ``-O1``, aggregated over the loop workloads.
LOOP_DELETION_FLOOR_PCT = 15.0

_LOOP_OFF = replace(FULL_SHADOW, loop_optimize=False)


def _pct(base, inst):
    return (inst.cost / base.cost - 1.0) * 100.0


def _reduction_pct(before, after):
    return round(100.0 * (1.0 - after / before), 2) if before else 0.0


def _geomean_pct(rows, key, names=None):
    """Geomean overhead of ``rows[n][key]`` (recorded, rounded
    percentages) over ``names`` (default: every row), taken over the
    cost ratios."""
    ratios = [1.0 + rows[n][key] / 100.0
              for n in (rows if names is None else names)]
    return round((geomean(ratios) - 1.0) * 100.0, 3)


def run_checkopt(workload_names=None):
    """The ``BENCH_checkopt.json`` report: loop passes off vs on."""
    per_workload = {}
    for name in workload_names or WORKLOADS:
        base, off = measure_equivalent(name, _LOOP_OFF)
        _, on = measure_equivalent(name, FULL_SHADOW)
        per_workload[name] = {
            "overhead_off_pct": round(_pct(base, off), 3),
            "overhead_on_pct": round(_pct(base, on), 3),
            "checks_off": off.checks,
            "checks_on": on.checks,
            "checks_eliminated_pct": _reduction_pct(off.checks, on.checks),
            "metadata_loads_off": off.metadata_loads,
            "metadata_loads_on": on.metadata_loads,
            # The normalized per-workload headline (bench-v2 schema).
            "value": round(_pct(base, on), 3),
        }
    loop_names = [n for n in LOOP_WORKLOADS if n in per_workload]
    report = {
        "schema": "bench-v2",
        "benchmark": "checkopt",
        "metric": "instrumented_overhead_pct",
        "config": FULL_SHADOW.label,
        "workloads": per_workload,
        "geomean": _geomean_pct(per_workload, "overhead_on_pct"),
        "geomean_overhead_off_pct": _geomean_pct(per_workload,
                                                 "overhead_off_pct"),
        "geomean_overhead_on_pct": _geomean_pct(per_workload,
                                                "overhead_on_pct"),
        "loop_workloads": loop_names,
        "loop_geomean_overhead_off_pct": _geomean_pct(
            per_workload, "overhead_off_pct", loop_names),
        "loop_geomean_overhead_on_pct": _geomean_pct(
            per_workload, "overhead_on_pct", loop_names),
    }
    report["loop_overhead_reduction_pct"] = _reduction_pct(
        report["loop_geomean_overhead_off_pct"],
        report["loop_geomean_overhead_on_pct"])
    return report


def run_prove(workload_names=None):
    """The ``BENCH_prove.json`` report: ``-O1`` vs ``-O2``."""
    per_workload = {}
    for name in workload_names or WORKLOADS:
        measure_equivalent(name, FULL_SHADOW, optimize=0)
        base, o1 = measure_equivalent(name, FULL_SHADOW, optimize=1)
        _, o2 = measure_equivalent(name, FULL_SHADOW, optimize=2)
        per_workload[name] = {
            "overhead_o1_pct": round(_pct(base, o1), 3),
            "overhead_o2_pct": round(_pct(base, o2), 3),
            "checks_o1": o1.checks,
            "checks_o2": o2.checks,
            "checks_deleted_pct": _reduction_pct(o1.checks, o2.checks),
            "certificates": o2.certificates,
            # The normalized per-workload headline (bench-v2 schema).
            "value": round(_pct(base, o2), 3),
        }
    loop_names = [n for n in LOOP_WORKLOADS if n in per_workload]
    report = {
        "schema": "bench-v2",
        "benchmark": "prove",
        "metric": "instrumented_overhead_pct",
        "config": "ShadowSpace-Complete-O2",
        "workloads": per_workload,
        "geomean": _geomean_pct(per_workload, "overhead_o2_pct"),
        "geomean_overhead_o1_pct": _geomean_pct(per_workload,
                                                "overhead_o1_pct"),
        "geomean_overhead_o2_pct": _geomean_pct(per_workload,
                                                "overhead_o2_pct"),
        "loop_workloads": loop_names,
        "loop_geomean_overhead_o1_pct": _geomean_pct(
            per_workload, "overhead_o1_pct", loop_names),
        "loop_geomean_overhead_o2_pct": _geomean_pct(
            per_workload, "overhead_o2_pct", loop_names),
        "certificates": sum(r["certificates"]
                            for r in per_workload.values()),
        "loop_checks_deleted_beyond_o1_pct": _reduction_pct(
            sum(per_workload[n]["checks_o1"] for n in loop_names),
            sum(per_workload[n]["checks_o2"] for n in loop_names)),
    }
    report["loop_overhead_reduction_beyond_o1_pct"] = _reduction_pct(
        report["loop_geomean_overhead_o1_pct"],
        report["loop_geomean_overhead_o2_pct"])
    return report


def run_temporal_overhead(workload_names=None):
    """The ``BENCH_temporal.json`` report: unprotected vs spatial-only
    vs spatial+temporal.  The temporal pass may cost, never change, a
    correct program (a false positive fails the sweep loudly)."""
    per_workload = {}
    for name in workload_names or WORKLOADS:
        base, spatial = measure_equivalent(name, FULL_SHADOW)
        _, temporal = measure_equivalent(name, TEMPORAL_SHADOW)
        per_workload[name] = {
            "spatial_overhead_pct": round(_pct(base, spatial), 3),
            "temporal_overhead_pct": round(_pct(base, temporal), 3),
            "temporal_extra_pct": round(_pct(spatial, temporal), 3),
            "temporal_checks": temporal.temporal_checks,
            "checks": temporal.checks,
            # The normalized per-workload headline (bench-v2 schema).
            "value": round(_pct(base, temporal), 3),
        }
    return {
        "schema": "bench-v2",
        "benchmark": "temporal-overhead",
        "metric": "instrumented_overhead_pct",
        "config": TEMPORAL_SHADOW.label,
        "workloads": per_workload,
        "geomean": _geomean_pct(per_workload, "temporal_overhead_pct"),
        "geomean_spatial_pct": _geomean_pct(per_workload,
                                            "spatial_overhead_pct"),
        "geomean_temporal_pct": _geomean_pct(per_workload,
                                             "temporal_overhead_pct"),
        "geomean_temporal_extra_pct": _geomean_pct(per_workload,
                                                   "temporal_extra_pct"),
    }


def _render_rows(title, report, columns):
    """Title, header and one aligned row per workload; ``columns`` is
    ``[(heading, width, format(row))]`` after the workload name."""
    header = f"{'workload':12s}" + "".join(
        f" {heading:>{width}s}" for heading, width, _ in columns)
    lines = [title, "", header, "-" * len(header)]
    for name, row in report["workloads"].items():
        lines.append(f"{name:12s}" + "".join(
            f" {fmt(row)}" for _, _, fmt in columns))
    lines.append("")
    return lines


def render_checkopt(report):
    lines = _render_rows(
        "Loop-aware check optimizer: instrumented overhead "
        "(softbound Full-Shadow), loop passes off vs on", report, [
            ("off", 9, lambda r: f"{r['overhead_off_pct']:8.1f}%"),
            ("on", 9, lambda r: f"{r['overhead_on_pct']:8.1f}%"),
            ("checks off", 11, lambda r: f"{r['checks_off']:11d}"),
            ("checks on", 11, lambda r: f"{r['checks_on']:11d}"),
            ("elim", 7, lambda r: f"{r['checks_eliminated_pct']:6.1f}%"),
        ])
    lines.append(f"geomean overhead (all {len(report['workloads'])}): "
                 f"{report['geomean_overhead_off_pct']:.1f}% -> "
                 f"{report['geomean_overhead_on_pct']:.1f}%")
    lines.append(f"geomean overhead (loop workloads "
                 f"{', '.join(report['loop_workloads'])}): "
                 f"{report['loop_geomean_overhead_off_pct']:.1f}% -> "
                 f"{report['loop_geomean_overhead_on_pct']:.1f}% "
                 f"({report['loop_overhead_reduction_pct']:.1f}% reduction)")
    return "\n".join(lines)


def render_prove(report):
    lines = _render_rows(
        "Solver-backed static check elimination (-O2 vs -O1, "
        "softbound Full-Shadow)", report, [
            ("O1", 9, lambda r: f"{r['overhead_o1_pct']:8.1f}%"),
            ("O2", 9, lambda r: f"{r['overhead_o2_pct']:8.1f}%"),
            ("checks O1", 11, lambda r: f"{r['checks_o1']:11d}"),
            ("checks O2", 11, lambda r: f"{r['checks_o2']:11d}"),
            ("deleted", 8, lambda r: f"{r['checks_deleted_pct']:7.1f}%"),
            ("certs", 6, lambda r: f"{r['certificates']:6d}"),
        ])
    lines.append(f"geomean overhead (all {len(report['workloads'])}): "
                 f"{report['geomean_overhead_o1_pct']:.1f}% -> "
                 f"{report['geomean_overhead_o2_pct']:.1f}%")
    lines.append(f"loop workloads ({', '.join(report['loop_workloads'])}): "
                 f"overhead {report['loop_geomean_overhead_o1_pct']:.1f}% -> "
                 f"{report['loop_geomean_overhead_o2_pct']:.1f}% "
                 f"({report['loop_overhead_reduction_beyond_o1_pct']:.1f}% "
                 f"beyond -O1); dynamic sb_check deleted "
                 f"{report['loop_checks_deleted_beyond_o1_pct']:.1f}%")
    lines.append(f"certificates recorded and replayed: "
                 f"{report['certificates']}")
    return "\n".join(lines)


def render_temporal_overhead(report):
    lines = _render_rows(
        "Temporal checking overhead: unprotected -> spatial (Full-"
        "Shadow) -> spatial+temporal, cost-model units", report, [
            ("spatial", 9, lambda r: f"{r['spatial_overhead_pct']:8.1f}%"),
            ("temporal", 9, lambda r: f"{r['temporal_overhead_pct']:8.1f}%"),
            ("extra", 8, lambda r: f"{r['temporal_extra_pct']:7.1f}%"),
            ("t-checks", 10, lambda r: f"{r['temporal_checks']:10d}"),
        ])
    lines.append(
        f"geomean overhead: spatial {report['geomean_spatial_pct']:.1f}% -> "
        f"spatial+temporal {report['geomean_temporal_pct']:.1f}% "
        f"(+{report['geomean_temporal_extra_pct']:.1f}% on top of spatial)")
    return "\n".join(lines)


def write_report(report, path):
    """Record a ``bench-v2`` report (every ``BENCH_*.json``)."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path):
    with open(path) as handle:
        return json.load(handle)
