"""The one cost-axis measurement path.

"Run workload W under configuration C at opt level L and report the
paper's metrics" happens only in :func:`measure`: Figure 1, Figure 2,
the Section 6.5 comparison, the ``--jobs`` prewarm and the recorded
overhead sweeps (:mod:`repro.harness.overhead`) all read it.  Results
are memoized per process because those consumers ask for overlapping
slices of the same sweep (every view shares the uninstrumented
baseline, most share ``spatial -O1``).
"""

from dataclasses import dataclass

from ..api import ProtectionProfile, compile_source, run_compiled
from ..prove import opt_level
from ..softbound.config import FIGURE2_CONFIGS
from ..vm.costs import overhead_percent
from ..workloads.programs import WORKLOADS

_MEASUREMENT_CACHE = {}


@dataclass
class WorkloadMeasurement:
    name: str
    suite: str
    config_label: str
    exit_code: int
    trap: object
    output: object
    cost: int
    instructions: int
    memory_ops: int
    pointer_memory_ops: int
    checks: int
    temporal_checks: int
    metadata_loads: int
    metadata_stores: int
    metadata_bytes: int
    #: Checks the ``-O2`` prove pass deleted, each with a replayed
    #: certificate (0 below level 2).
    certificates: int = 0

    @property
    def pointer_fraction(self):
        if self.memory_ops == 0:
            return 0.0
        return self.pointer_memory_ops / self.memory_ops


def _cache_key(workload_name, config=None, observer_factory=None,
               optimize=1):
    return (workload_name,
            config.label if config is not None else
            (observer_factory.__name__ if observer_factory else "baseline"),
            getattr(config, "variant", ""),
            getattr(config, "optimize_checks", True),
            getattr(config, "loop_optimize", True),
            opt_level(optimize))


def is_measurement_cached(workload_name, config=None, observer_factory=None,
                          optimize=1):
    return _cache_key(workload_name, config, observer_factory,
                      optimize) in _MEASUREMENT_CACHE


def seed_measurement(measurement, workload_name, config=None,
                     observer_factory=None, optimize=1):
    """Install an externally computed measurement (the ``--jobs``
    process-pool fan-out seeds the per-process cache with worker
    results; every machine is deterministic, so a worker's measurement
    is bit-identical to one computed here)."""
    _MEASUREMENT_CACHE[_cache_key(workload_name, config, observer_factory,
                                  optimize)] = measurement
    return measurement


def _replayed_certificates(name, compiled):
    """Replay every certificate of an ``-O2`` build against the formal
    semantics and check each deleted check carries one; returns the
    certificate count.  A counterexample raises AssertionError."""
    from ..prove import replay_certificate

    certificates = tuple(getattr(compiled, "prove_certificates", None)
                         or ())
    for cert in certificates:
        ok, reason = replay_certificate(cert)
        if not ok:
            raise AssertionError(
                f"{name}: certificate replay counterexample at "
                f"{cert.function}:{cert.site} — {reason}")
    stats = getattr(compiled, "check_opt_stats", None)
    proved = ((getattr(stats, "proved_checks", 0) or 0)
              + (getattr(stats, "proved_temporal_checks", 0) or 0))
    if proved != len(certificates):
        raise AssertionError(
            f"{name}: {proved} checks deleted by proof but "
            f"{len(certificates)} certificates recorded")
    return len(certificates)


def measure(workload_name, config=None, observer_factory=None, optimize=1):
    """Compile and run one workload under one configuration at one opt
    level (memoized).

    ``config`` is a SoftBoundConfig or None; ``observer_factory`` builds a
    fresh baseline observer per run (observers carry per-run state);
    ``optimize`` is any spelling :func:`repro.prove.opt_level` accepts.
    At ``-O2`` every deletion certificate is replayed inside the
    measurement.
    """
    key = _cache_key(workload_name, config, observer_factory, optimize)
    if key in _MEASUREMENT_CACHE:
        return _MEASUREMENT_CACHE[key]
    level = key[-1]
    wl = WORKLOADS[workload_name]
    profile = ProtectionProfile.from_config(config, observer_factory)
    compiled = compile_source(wl.source, profile=profile, optimize=level)
    result = run_compiled(compiled, profile=profile, name=wl.name)
    stats = result.stats
    m = WorkloadMeasurement(
        name=wl.name,
        suite=wl.suite,
        config_label=key[1],
        exit_code=result.exit_code,
        trap=result.trap,
        output=result.output,
        cost=stats.cost,
        instructions=stats.instructions,
        memory_ops=stats.memory_ops,
        pointer_memory_ops=stats.pointer_memory_ops,
        checks=stats.checks,
        temporal_checks=stats.temporal_checks,
        metadata_loads=stats.metadata_loads,
        metadata_stores=stats.metadata_stores,
        metadata_bytes=stats.metadata_bytes,
        certificates=(_replayed_certificates(wl.name, compiled)
                      if level == 2 else 0),
    )
    _MEASUREMENT_CACHE[key] = m
    return m


def pointer_fractions():
    """Figure 1's series: {workload: fraction}, uninstrumented runs."""
    return {name: measure(name).pointer_fraction for name in WORKLOADS}


def measure_equivalent(workload_name, config, optimize=1):
    """:func:`measure` one instrumented build and check it behaves
    exactly like the uninstrumented baseline: no trap, same exit code,
    same output.  Instrumentation may cost, never change, a correct
    program.  Returns ``(baseline, instrumented)``."""
    base = measure(workload_name)
    inst = measure(workload_name, config, optimize=optimize)
    if inst.trap is not None or inst.exit_code != base.exit_code \
            or inst.output != base.output:
        raise AssertionError(
            f"{workload_name} under {inst.config_label} "
            f"-O{opt_level(optimize)}: behaviour diverged from the "
            f"uninstrumented baseline ({inst.trap}, exit "
            f"{inst.exit_code} vs {base.exit_code})")
    return base, inst


def overhead_matrix(configs=FIGURE2_CONFIGS, workload_names=None):
    """Figure 2's matrix: {config_label: {workload: overhead %}}, with
    behavioural equivalence checked per cell (:func:`measure_equivalent`).
    """
    names = list(workload_names or WORKLOADS)
    matrix = {}
    for config in configs:
        row = {}
        for name in names:
            base, inst = measure_equivalent(name, config)
            row[name] = overhead_percent(base.cost, inst.cost)
        matrix[config.label] = row
    return matrix


def average(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0
