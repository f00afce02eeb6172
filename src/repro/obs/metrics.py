"""Process-wide metrics registry: counters, gauges, histograms with labels.

Instruments are created (or fetched) through a :class:`MetricsRegistry`;
the module-level :func:`default_registry` is what the store, session
caches, optimizer pipelines, parallel harness and fuzz campaign publish
into.  Three kinds:

* :class:`Counter` — monotonically increasing float/int.
* :class:`Gauge` — last-write-wins level (cache sizes, pool width).
* :class:`Histogram` — fixed-bucket distribution tracking count/sum/min/max.

Every instrument may be keyed by labels; a labelled series is named
``name{k=v,...}`` with label keys sorted, so snapshots are plain
``{series: value}`` dicts that pickle across process boundaries and
merge associatively (counters and histogram cells add, gauges take the
incoming value).

Two extra mechanisms keep legacy counter bags authoritative without
double counting:

* :meth:`MetricsRegistry.register_source` holds a *weakref* to an
  object plus an extractor returning ``{name: value}``; live sources
  are folded into every snapshot.  This is how ``StoreStats`` and the
  Session LRU surface without changing their hot paths.
* :meth:`MetricsRegistry.merge` accumulates a snapshot returned by a
  worker process into a side table, so parent totals cover pool work.
"""

import threading
import weakref

_DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


def series_name(name, labels=None):
    """Render ``name{k=v,...}`` with sorted label keys (bare name when
    there are no labels)."""
    if not labels:
        return name
    inner = ",".join("%s=%s" % (k, labels[k]) for k in sorted(labels))
    return "%s{%s}" % (name, inner)


class Counter:
    """Monotonic counter.  ``inc`` with negative amounts is rejected so
    merged totals stay monotone."""

    kind = "counter"

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counter %s cannot decrease" % self.name)
        self.value += amount

    def collect(self):
        return {self.name: self.value}


class Gauge:
    """Last-write-wins level."""

    kind = "gauge"

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount

    def collect(self):
        return {self.name: self.value}


class Histogram:
    """Fixed upper-bound buckets plus count/sum/min/max.

    Collected as one series per cell: ``name_count``, ``name_sum``,
    ``name_min``, ``name_max`` and ``name_bucket{le=...}`` (cumulative,
    with a final ``le=inf``).  All cells except min/max merge by
    addition; min/max merge by min/max and are kept out of associative
    merging by the registry.
    """

    kind = "histogram"

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name, buckets=_DEFAULT_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def collect(self):
        out = {
            self.name + "_count": self.count,
            self.name + "_sum": self.sum,
        }
        if self.min is not None:
            out[self.name + "_min"] = self.min
            out[self.name + "_max"] = self.max
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out[series_name(self.name + "_bucket", {"le": bound})] = running
        out[series_name(self.name + "_bucket", {"le": "inf"})] = (
            running + self.counts[-1])
        return out


class MetricsRegistry:
    """Get-or-create instrument registry with snapshot/merge support."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments = {}
        self._sources = []
        self._merged = {}

    def _instrument(self, cls, name, labels, **kwargs):
        key = series_name(name, labels)
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(key, **kwargs)
                self._instruments[key] = inst
            elif not isinstance(inst, cls):
                raise TypeError("metric %s already registered as %s"
                                % (key, inst.kind))
            return inst

    def counter(self, name, labels=None):
        return self._instrument(Counter, name, labels)

    def gauge(self, name, labels=None):
        return self._instrument(Gauge, name, labels)

    def histogram(self, name, labels=None, buckets=_DEFAULT_BUCKETS):
        return self._instrument(Histogram, name, labels, buckets=buckets)

    def register_source(self, prefix, obj, extract):
        """Fold ``extract(obj)`` (a ``{name: value}`` dict) into every
        snapshot under ``prefix``, for as long as ``obj`` is alive.
        Holds a weakref — registering never extends a lifetime."""
        with self._lock:
            self._sources.append((prefix, weakref.ref(obj), extract))

    def merge(self, snapshot):
        """Accumulate a snapshot from another process (or registry).
        ``*_min``/``*_max`` histogram cells merge by min/max, everything
        else by addition (snapshots are flat ``{series: value}`` dicts,
        so kind information is gone; workers therefore report *deltas*,
        which add correctly for counters and histogram cells)."""
        if not snapshot:
            return
        with self._lock:
            for key, value in snapshot.items():
                if key.endswith("_min"):
                    old = self._merged.get(key)
                    self._merged[key] = value if old is None else min(old, value)
                elif key.endswith("_max"):
                    old = self._merged.get(key)
                    self._merged[key] = value if old is None else max(old, value)
                else:
                    self._merged[key] = self._merged.get(key, 0) + value

    def merged(self, prefix=""):
        """The worker-merged side table as a plain dict, optionally
        filtered to series starting with ``prefix``.  Unlike
        :meth:`snapshot` this never sums live sources, so a consumer can
        fold pool deltas onto its *own* counters without picking up
        other instruments alive in the process."""
        with self._lock:
            return {k: v for k, v in self._merged.items()
                    if k.startswith(prefix)}

    def snapshot(self):
        """All series as a plain ``{series: value}`` dict: direct
        instruments + live registered sources + merged worker totals."""
        out = {}
        with self._lock:
            instruments = list(self._instruments.values())
            sources = list(self._sources)
            merged = dict(self._merged)
        for inst in instruments:
            for key, value in inst.collect().items():
                out[key] = out.get(key, 0) + value
        dead = []
        for source in sources:
            prefix, ref, extract = source
            obj = ref()
            if obj is None:
                dead.append(source)
                continue
            for name, value in extract(obj).items():
                key = prefix + name
                out[key] = out.get(key, 0) + value
        for key, value in merged.items():
            if key.endswith("_min"):
                old = out.get(key)
                out[key] = value if old is None else min(old, value)
            elif key.endswith("_max"):
                old = out.get(key)
                out[key] = value if old is None else max(old, value)
            else:
                out[key] = out.get(key, 0) + value
        if dead:
            with self._lock:
                # Drop dead sources so long-lived processes don't scan them.
                self._sources = [s for s in self._sources if s not in dead]
        return out

    def reset(self):
        with self._lock:
            self._instruments.clear()
            self._sources = []
            self._merged.clear()


def snapshot_delta(before, after):
    """What a registry grew by between two snapshots, as a snapshot
    :meth:`MetricsRegistry.merge` can add (``*_min``/``*_max`` cells
    are carried as-is).  Pool workers outlive their tasks, so a raw
    snapshot would re-report earlier tasks' counts; the delta merges
    cleanly."""
    delta = {}
    for key, value in after.items():
        if key.endswith("_min") or key.endswith("_max"):
            delta[key] = value
            continue
        grown = value - before.get(key, 0)
        if grown:
            delta[key] = grown
    return delta


def histogram_quantile(snapshot, name, quantile):
    """Estimate a quantile from a histogram's cumulative bucket series
    in a snapshot (``name_bucket{le=...}`` cells), the Prometheus
    ``histogram_quantile`` discipline: find the first bucket whose
    cumulative count covers ``quantile`` of the observations and
    linearly interpolate within it.  Returns ``None`` when the
    histogram is empty or absent; the top (``le=inf``) bucket reports
    the largest finite bound (clamped by ``name_max`` when present)
    rather than infinity."""
    prefix = name + "_bucket{le="
    cells = []
    for key, value in snapshot.items():
        if key.startswith(prefix):
            bound = key[len(prefix):-1]
            cells.append((float("inf") if bound == "inf" else float(bound),
                          value))
    if not cells:
        return None
    cells.sort()
    total = cells[-1][1]
    if total <= 0:
        return None
    rank = quantile * total
    previous_bound, previous_count = 0.0, 0
    for bound, cumulative in cells:
        if cumulative >= rank:
            if bound == float("inf"):
                finite = [b for b, _ in cells if b != float("inf")]
                bound = snapshot.get(name + "_max",
                                     finite[-1] if finite else 0.0)
                return max(bound, previous_bound)
            span = cumulative - previous_count
            if span <= 0:
                return bound
            fraction = (rank - previous_count) / span
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, cumulative
    return cells[-1][0]


_default = MetricsRegistry()


def default_registry():
    return _default
