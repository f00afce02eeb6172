"""Deterministic x86-calibrated cost model.

The paper reports *runtime overhead ratios* on a Core 2 (Figure 2).  Our
substrate is an interpreter, whose own speed is meaningless; what is
meaningful — and what the paper's analysis attributes the overheads to —
is the count of extra x86-level instructions executed: ~9 per hash-table
metadata access, ~5 per shadow-space access (paper Section 5.1), plus a
few for each bounds check.  We therefore charge every executed IR
operation a cost approximating its x86 instruction count (weighted
slightly for memory latency) and report overhead as
``cost(instrumented) / cost(baseline) - 1``.

The calibration constants below are documented in EXPERIMENTS.md; tests
pin the *relative* ordering the paper's Figure 2 depends on
(hash > shadow, full > store-only).
"""

import math
from dataclasses import dataclass, field

# Base IR operation costs (approximate x86 instructions, memory ops
# weighted x2 for latency).
OP_COSTS = {
    "binop.add": 1,
    "binop.sub": 1,
    "binop.and": 1,
    "binop.or": 1,
    "binop.xor": 1,
    "binop.shl": 1,
    "binop.lshr": 1,
    "binop.ashr": 1,
    "binop.mul": 3,
    "binop.sdiv": 20,
    "binop.udiv": 20,
    "binop.srem": 20,
    "binop.urem": 20,
    "binop.fadd": 3,
    "binop.fsub": 3,
    "binop.fmul": 4,
    "binop.fdiv": 15,
    "cmp": 1,
    "gep": 1,       # lea
    "cast": 1,
    "mov": 0,     # reg-reg moves disappear under register renaming
    "load": 2,
    "store": 2,
    "alloca": 0,    # folded into frame setup
    "call": 2,
    "call.per_arg": 1,
    "ret": 1,
    "br": 1,
    "cbr": 1,
    "unreachable": 0,
    "memcopy.base": 4,
    "memcopy.per_8_bytes": 1,
    # SoftBound runtime operations (paper Section 5.1):
    "sb.check": 3,            # two compares + branch (+ size add)
    # 9 instructions incl. 3 loads; loads carry the same x2 latency
    # weighting as program loads, hence 12 cost units.
    "sb.meta.hash.load": 12,
    "sb.meta.hash.store": 13,
    # 5 instructions incl. 2 loads -> 7 cost units.
    "sb.meta.shadow.load": 7,
    "sb.meta.shadow.store": 7,
    "sb.fnptr.check": 2,
    "sb.vararg.check": 2,
    "sb.global.init.per_ptr": 12,
    # Lock-and-key temporal checking (CETS-style companion mechanism):
    # the check is one lock-location load (x2 latency weight) plus a
    # compare and branch; the widened metadata entry adds two extra
    # slots (key, lock) to each table access.
    "sb.temporal.check": 4,
    "sb.temporal.meta.load": 3,
    "sb.temporal.meta.store": 3,
    "sb.temporal.lock.acquire": 6,   # key counter + lock-slot write
    "sb.temporal.lock.release": 3,   # lock-slot invalidation write
    "sb.temporal.global.init.per_ptr": 6,
    # Baseline checker operations:
    "jk.splay.per_level": 6,   # object-table lookup, per tree level
    "jk.check": 4,
    "mscc.meta.load": 11,      # linked shadow structures (incl. chasing)
    "mscc.meta.store": 12,
    "mscc.check": 4,
    "fatptr.load": 6,          # multi-word pointer load
    "fatptr.store": 6,
    "fatptr.check": 3,
    "fatptr.wild.tag_update": 4,
    "valgrind.per_access": 12,  # DBI shadow-memory overhead
    "mudflap.lookup": 14,
}

def register_costs(mapping):
    """Merge a checker policy's cost keys into :data:`OP_COSTS`
    (:meth:`repro.policy.base.CheckerPolicy.cost_model`, applied at
    policy registration).  Idempotent for identical re-registration;
    re-pricing an existing key raises — the calibrated constants above
    are documented in EXPERIMENTS.md and must not drift silently."""
    for key, units in mapping.items():
        existing = OP_COSTS.get(key)
        if existing is not None and existing != units:
            raise ValueError(f"cost key {key!r} already priced at "
                             f"{existing}, refusing to re-price to {units}")
        OP_COSTS[key] = units


# Libc costs: (base, per_byte) pairs.
LIBC_COSTS = {
    "strcpy": (6, 2),
    "strncpy": (6, 2),
    "strcat": (8, 2),
    "strlen": (4, 1),
    "strcmp": (4, 2),
    "strncmp": (4, 2),
    "strchr": (4, 1),
    "memcpy": (6, 1),
    "memmove": (8, 1),
    "memset": (4, 1),
    "memcmp": (4, 1),
    "gets": (8, 2),
    "printf": (40, 1),
    "sprintf": (30, 1),
    "snprintf": (30, 1),
    "puts": (10, 1),
    "putchar": (6, 0),
    "getchar": (6, 0),
    "atoi": (8, 2),
    "malloc": (40, 0),
    "calloc": (48, 1),
    "realloc": (60, 1),
    "free": (30, 0),
    "rand": (8, 0),
    "srand": (4, 0),
    "abs": (2, 0),
    "labs": (2, 0),
    "sqrt": (20, 0),
    "fabs": (2, 0),
    "floor": (4, 0),
    "ceil": (4, 0),
    "pow": (40, 0),
    "sin": (40, 0),
    "cos": (40, 0),
    "exp": (40, 0),
    "log": (40, 0),
    "setjmp": (20, 0),
    "longjmp": (20, 0),
    "exit": (4, 0),
    "abort": (4, 0),
    "setbound": (2, 0),
    "va_start": (3, 0),
    "va_arg_long": (3, 0),
    "va_arg_ptr": (3, 0),
    "va_end": (1, 0),
}


@dataclass(slots=True)
class CostStats:
    """Per-run dynamic statistics.

    ``slots=True`` matters: the compiled engine bumps these counters on
    every executed instruction, and slot access skips the instance-dict
    lookup."""

    cost: int = 0
    instructions: int = 0
    memory_ops: int = 0
    pointer_memory_ops: int = 0
    checks: int = 0
    temporal_checks: int = 0
    metadata_loads: int = 0
    metadata_stores: int = 0
    calls: int = 0
    peak_heap: int = 0
    metadata_bytes: int = 0

    def charge(self, key, times=1):
        self.cost += OP_COSTS[key] * times

    def charge_units(self, units):
        self.cost += units

    def charge_libc(self, name, nbytes=0):
        base, per_byte = LIBC_COSTS.get(name, (10, 1))
        self.cost += base + per_byte * nbytes

    @property
    def pointer_memory_op_fraction(self):
        """Fraction of memory operations that move a *pointer* value —
        the quantity Figure 1 plots and Figure 2's overheads track."""
        if self.memory_ops == 0:
            return 0.0
        return self.pointer_memory_ops / self.memory_ops


def overhead_percent(baseline_cost, instrumented_cost):
    """Figure 2's metric: percentage runtime overhead over baseline."""
    if baseline_cost == 0:
        return 0.0
    return (instrumented_cost / baseline_cost - 1.0) * 100.0


def geomean(ratios):
    """The repo's one average of cost or time *ratios* (each > 0):
    their geometric mean, ``exp(mean(log r))``.

    Overheads are averaged as ratios ``cost(instrumented) /
    cost(baseline)`` and only then read as a percentage, never as a
    geomean of percentages: a workload with exactly 0% overhead is the
    ratio 1.0 and averages exactly.  No ratios average to 1.0.
    """
    ratios = list(ratios)
    if not ratios:
        return 1.0
    return math.exp(sum(map(math.log, ratios)) / len(ratios))
