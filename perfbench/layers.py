"""Per-layer metrics assembled from spans, stage counts and run stats.

``busy_ms`` metrics are a layer's self time per operation, the median
over the traced operations that entered the layer.  Counts are exact:
static counts are means per compile that ran the stage, dynamic VM
counts are means per operation of the run's first lap.
"""

from spans import busy_ms

#: Span names that are layers; each becomes ``<name>.busy_ms``.
LAYER_SPANS = ("frontend.parse", "frontend.typecheck", "lower",
               "opt.optimize", "opt.post_optimize", "softbound.instrument",
               "store.load", "store.save", "vm.instantiate", "vm.run",
               "api.report")

#: Metric name -> CostStats field.
VM_COUNTS = {
    "vm.instructions": "instructions",
    "vm.cost_units": "cost",
    "vm.checks": "checks",
    "vm.temporal_checks": "temporal_checks",
    "vm.metadata_loads": "metadata_loads",
    "vm.metadata_stores": "metadata_stores",
}


def busy_metrics(bench):
    traced = {op.op_id for op in bench.ops if op.traced}
    busy = busy_ms(bench.recorder.spans, traced)
    return {f"{name}.busy_ms": busy[name]
            for name in LAYER_SPANS if name in busy}


def vm_count_metrics(stats_rows):
    """Means of the VM counters over ``stats_rows`` (CostStats dicts)."""
    return {metric: sum(row[field] for row in stats_rows) / len(stats_rows)
            for metric, field in VM_COUNTS.items()}


def instrs_per_s(bench):
    """VM instructions per second of ``Machine.run`` over traced ops."""
    traced = [bench.vm_runs[op.op_id] for op in bench.ops
              if op.traced and op.op_id in bench.vm_runs]
    seconds = sum(s for _, s in traced)
    return {"vm.run.instrs_per_s":
            sum(i for i, _ in traced) / seconds if seconds else 0.0}


def certificates(compiled):
    """Checks the -O2 prove pass deleted from ``compiled``."""
    return len(getattr(compiled, "prove_certificates", None) or ())


def compile_count_metrics(counts, o2_certificates):
    """Static counts per stage, the share of inserted checks the
    post-instrumentation optimizer removed, and the mean of
    ``o2_certificates`` (one count per ``-O2`` compile)."""
    inserted = counts.totals.get("softbound.static_checks", 0)
    kept = counts.totals.get("opt.post_optimize.static_checks", 0)
    return {
        "frontend.parse.tokens": counts.mean("parse", "frontend.parse.tokens"),
        "lower.ir_instrs": counts.mean("lower", "lower.ir_instrs"),
        "opt.optimize.ir_instrs": counts.mean("optimize",
                                              "opt.optimize.ir_instrs"),
        "softbound.static_checks": counts.mean("instrument",
                                               "softbound.static_checks"),
        "opt.post_optimize.static_checks": counts.mean(
            "post-optimize", "opt.post_optimize.static_checks"),
        "opt.checks_removed_ratio": ((inserted - kept) / inserted
                                     if inserted else 0.0),
        "prove.certificates": (sum(o2_certificates) / len(o2_certificates)
                               if o2_certificates else 0.0),
    }
