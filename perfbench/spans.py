"""In-memory spans recorded around calls into each layer of the program.

A span is ``(id, name, start, end, parent, op)``: ``parent`` is the span
open on the same thread when this one started, ``op`` the operation the
span belongs to.  Spans are kept in memory and written out as JSON lines
when the run ends.  A layer's *self time* is its span's duration minus
the part of that interval its child spans cover.

:class:`NullRecorder` opens and closes spans the same way and records
nothing; the untraced runs that produce the end-to-end metrics use it.
"""

import contextlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass

from repro.api import ToolchainObserver


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int


class SpanRecorder:
    """Records spans; safe to use from several client threads."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name, op):
        """Open a span on this thread; returns its token for :meth:`finish`."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        with self._lock:
            span_id = next(self._ids)
        stack.append((span_id, name, time.perf_counter(), parent, op))
        return span_id

    def finish(self, span_id):
        """Close ``span_id`` and any child a raising call left open."""
        end = time.perf_counter()
        stack = self._stack()
        while stack:
            top_id, name, start, parent, op = stack.pop()
            with self._lock:
                self.spans.append(Span(top_id, name, start, end, parent, op))
            if top_id == span_id:
                return

    @contextlib.contextmanager
    def span(self, name, op):
        span_id = self.start(name, op)
        try:
            yield
        finally:
            self.finish(span_id)

    def write(self, path):
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")


class NullRecorder:
    """The disabled recorder: every call is a no-op."""

    enabled = False

    def start(self, name, op):
        return None

    def finish(self, span_id):
        pass

    def span(self, name, op):
        return contextlib.nullcontext()


def self_seconds(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def busy_ms(spans, ops=None):
    """{span name: median over ops of that name's summed self time, ms}.

    The median is over the ops in which the name occurs; ``ops``
    restricts which op ids count (None: all)."""
    own = self_seconds(spans)
    per_op = {}
    for span in spans:
        if ops is not None and span.op not in ops:
            continue
        key = (span.name, span.op)
        per_op[key] = per_op.get(key, 0.0) + own[span.id]
    by_name = {}
    for (name, _), seconds in per_op.items():
        by_name.setdefault(name, []).append(seconds * 1000.0)
    return {name: statistics.median(values)
            for name, values in by_name.items()}


#: Toolchain stage name -> span name (the layer module it belongs to).
STAGE_SPANS = {
    "parse": "frontend.parse",
    "typecheck": "frontend.typecheck",
    "lower": "lower",
    "optimize": "opt.optimize",
    "instrument": "softbound.instrument",
    "post-optimize": "opt.post_optimize",
}

CHECK_OPCODES = ("sb_check", "sb_temporal_check")

#: Stage -> (count metric, index into :func:`count_ir`'s result).
IR_COUNTS = {
    "lower": ("lower.ir_instrs", 0),
    "optimize": ("opt.optimize.ir_instrs", 0),
    "instrument": ("softbound.static_checks", 1),
    "post-optimize": ("opt.post_optimize.static_checks", 1),
}


def count_ir(module):
    """``(instructions, static checks)`` in an IR module."""
    instrs = checks = 0
    for function in module.functions.values():
        for block in function.blocks:
            for instruction in block.instructions:
                instrs += 1
                if instruction.opcode in CHECK_OPCODES:
                    checks += 1
    return instrs, checks


class StageCounts:
    """Per-stage static counts summed over the compiles observed."""

    def __init__(self):
        self.compiles = {}   # stage -> number of compiles that ran it
        self.totals = {}     # count name -> sum

    def add(self, name, value):
        self.totals[name] = self.totals.get(name, 0) + value

    def mean(self, stage, name):
        runs = self.compiles.get(stage, 0)
        return self.totals.get(name, 0) / runs if runs else 0.0


class StageObserver(ToolchainObserver):
    """Opens a span per toolchain stage and counts what each stage
    produced (tokens, IR instructions, static checks).

    Counting runs after the stage's span closed, so it is charged to the
    enclosing ``compile`` span, not to the stage.  The stages after
    ``lower`` rewrite one module object in place, so each count is taken
    as soon as its stage ends."""

    def __init__(self, recorder, counts, op):
        self.recorder = recorder
        self.counts = counts
        self.op = op
        self._open = None
        self._module = None

    def before_stage(self, stage, payload):
        self._open = self.recorder.start(STAGE_SPANS[stage], self.op)

    def after_stage(self, stage, artifact):
        self.recorder.finish(self._open)
        counts = self.counts
        counts.compiles[stage] = counts.compiles.get(stage, 0) + 1
        if stage == "parse":
            counts.add("frontend.parse.tokens", len(artifact["tokens"]))
        if stage == "lower":
            self._module = artifact["module"]
        if stage in IR_COUNTS:
            name, index = IR_COUNTS[stage]
            counts.add(name, count_ir(self._module)[index])
