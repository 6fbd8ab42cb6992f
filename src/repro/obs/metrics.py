"""Metric primitives: counters, gauges, and log-bucket histograms.

:class:`MetricsRegistry` is the one place metrics live.  Call sites ask the
registry for a named instrument (``registry.counter("serve.requests",
kind="point")``) and get the same object back on every call with the same
name + labels, so recording is a plain attribute update behind one lock
acquisition.  The registry exports everything at once as a JSON-able
dict (:meth:`MetricsRegistry.export`).

:class:`Histogram` generalises the log-spaced latency histogram that used
to be private to ``repro.serve.stats.ServerStats``: doubling buckets above
a configurable base, upper-bound percentile estimates, exact
count/total/max alongside, and mergeability (for folding worker-process
histograms into a parent's).

Naming convention: dotted lowercase ``subsystem.thing`` names
(``serve.batch_size``, ``query.predicted_range_width``); labels carry the
cardinality (``kind="point"``), never the name.
"""

from __future__ import annotations

import threading
import time

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "histogram_stat",
    "series_sum",
]

#: Canonical label encoding: a sorted tuple of (key, value-string) pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (queue depth, generation age).

    Every write stamps ``updated_at`` (wall clock), which is what lets
    :meth:`MetricsRegistry.merge` pick the freshest value when folding
    several exported snapshots into one fleet-wide view.
    """

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self.updated_at = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updated_at = time.time()

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        self.updated_at = time.time()

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Log-spaced histogram: doubling buckets above ``base``.

    Bucket ``i`` covers ``(base * 2**(i-1), base * 2**i]`` for ``i >= 1``
    and ``[0, base]`` for bucket 0; the last bucket absorbs everything
    larger.  Percentiles are estimated from bucket upper bounds, capped at
    the largest sample — pessimistic by at most one doubling.  Exact
    count/total/max are kept alongside, and two histograms with the same
    shape merge by adding their buckets (:meth:`merge`), which is how
    spans' worker-process histograms fold back into the parent.
    """

    kind = "histogram"

    def __init__(self, base: float = 1e-6, n_buckets: int = 28) -> None:
        if base <= 0:
            raise ValueError(f"base must be > 0, got {base}")
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        self.base = float(base)
        self.n_buckets = int(n_buckets)
        self.counts = np.zeros(self.n_buckets, dtype=np.int64)
        self.total = 0.0
        self.max = 0.0

    # ------------------------------------------------------------------
    def bucket_index(self, value: float) -> int:
        """The bucket ``value`` falls into (the reference doubling loop)."""
        bucket = 0
        scaled = value / self.base
        while scaled > 1.0 and bucket < self.n_buckets - 1:
            scaled /= 2.0
            bucket += 1
        return bucket

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """Half-open ``(lo, hi]`` value bounds of bucket ``index``."""
        if not 0 <= index < self.n_buckets:
            raise IndexError(f"bucket {index} out of range [0, {self.n_buckets})")
        lo = 0.0 if index == 0 else self.base * 2.0 ** (index - 1)
        hi = self.base * 2.0**index
        return lo, hi

    def record(self, value: float) -> None:
        """Record one sample ``value``."""
        self.counts[self.bucket_index(value)] += 1
        self.total += value
        if value > self.max:
            self.max = value

    def record_many(self, values: "list[float] | np.ndarray") -> None:
        """Record every sample of ``values`` in one vectorised pass.

        ``scaled = mantissa * 2**exponent`` with the mantissa in
        ``[0.5, 1)``, so the halvings :meth:`bucket_index` counts are the
        exponent, one fewer at an exact power of two; clipping ``scaled``
        into ``[1, 2**(n_buckets - 1)]`` first lands everything at or
        below ``base`` in bucket 0 and everything past the end in the last.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        self.counts += np.bincount(self._buckets(values), minlength=self.n_buckets)
        self.total += float(values.sum())
        self.max = max(self.max, float(values.max()))

    def _buckets(self, values: np.ndarray) -> np.ndarray:
        """The bucket of every sample of ``values``, any shape (``np.clip``
        spelled as its two ufuncs, in place: a third of its cost)."""
        scaled = values / self.base
        np.maximum(scaled, 1.0, out=scaled)
        np.minimum(scaled, 2.0 ** (self.n_buckets - 1), out=scaled)
        mantissa, exponent = np.frexp(scaled)
        exponent -= mantissa == 0.5
        return exponent

    @staticmethod
    def record_pair(
        first: "Histogram", second: "Histogram", a: np.ndarray, b: np.ndarray
    ) -> None:
        """``first.record_many(a)`` and ``second.record_many(b)`` for two
        histograms of one shape and two sample arrays of one length, in
        one pass over both: the same counts, total and max."""
        if first.base != second.base or first.n_buckets != second.n_buckets:
            raise ValueError("record_pair needs two histograms of one shape")
        if len(a) != len(b):
            raise ValueError(
                f"record_pair needs samples of one length, got {len(a)} and {len(b)}"
            )
        if len(a) == 0:
            return
        both = np.concatenate((a, b)).astype(np.float64, copy=False)
        n = first.n_buckets
        buckets = first._buckets(both)
        buckets[len(a) :] += n
        counts = np.bincount(buckets, minlength=2 * n)
        first.counts += counts[:n]
        second.counts += counts[n:]
        rows = both.reshape(2, -1)
        total_a, total_b = rows.sum(axis=1).tolist()
        max_a, max_b = rows.max(axis=1).tolist()
        first.total += total_a
        second.total += total_b
        first.max = max(first.max, max_a)
        second.max = max(second.max, max_b)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram (same shape only)."""
        if other.base != self.base or other.n_buckets != self.n_buckets:
            raise ValueError(
                f"cannot merge histogram(base={other.base}, n={other.n_buckets}) "
                f"into histogram(base={self.base}, n={self.n_buckets})"
            )
        self.counts += other.counts
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return int(self.counts.sum())

    @property
    def mean(self) -> float:
        n = self.count
        return self.total / n if n else 0.0

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the q-th percentile (q in [0, 100])."""
        n = self.count
        if n == 0:
            return 0.0
        rank = max(1, int(np.ceil(q / 100.0 * n)))
        bucket = int(np.searchsorted(np.cumsum(self.counts), rank))
        if bucket == self.n_buckets - 1:  # open-ended: only ``max`` bounds it
            return self.max
        return min(self.bucket_bounds(bucket)[1], self.max)

    @classmethod
    def from_snapshot(cls, value: dict) -> "Histogram":
        """The histogram a full :meth:`snapshot` (raw buckets included)
        was taken of."""
        hist = cls(base=float(value["base"]), n_buckets=int(value["n_buckets"]))
        hist.counts += np.asarray(value["buckets"], dtype=np.int64)
        hist.total = float(value["total"])
        hist.max = float(value["max"])
        return hist

    def snapshot(self) -> dict:
        """Summary stats plus the raw shape/buckets, so a snapshot taken in
        one process can be merged losslessly into another registry
        (:meth:`MetricsRegistry.merge`) — percentiles of the merged
        histogram come out right because the bucket counts travel."""
        return {
            "count": self.count,
            "mean": self.mean,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "total": self.total,
            "base": self.base,
            "n_buckets": self.n_buckets,
            "buckets": self.counts.tolist(),
        }


class MetricsRegistry:
    """Thread-safe get-or-create home for named instruments.

    The same (name, labels) pair always returns the same instrument, so
    hot paths can re-ask the registry instead of threading instrument
    objects around.  Asking for an existing name with a different
    instrument kind (or histogram shape) is a bug and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, LabelKey], object] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, labels: dict, factory, kind: str):
        if not name:
            raise ValueError("metric name must be non-empty")
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {instrument.kind}, "
                    f"asked for {kind}"
                )
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(name, labels, Counter, "counter")

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(name, labels, Gauge, "gauge")

    def histogram(
        self, name: str, base: float = 1e-6, n_buckets: int = 28, **labels
    ) -> Histogram:
        hist = self._get_or_create(
            name, labels, lambda: Histogram(base=base, n_buckets=n_buckets), "histogram"
        )
        if hist.base != base or hist.n_buckets != n_buckets:
            raise ValueError(
                f"histogram {name!r} already registered with base={hist.base}, "
                f"n_buckets={hist.n_buckets}"
            )
        return hist

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every instrument (tests and process-lifetime resets)."""
        with self._lock:
            self._instruments.clear()

    def export(self) -> dict:
        """JSON-able dump: ``{name: [{labels, kind, value}, ...]}``.

        Gauge entries carry an ``updated_at`` wall-clock stamp so
        :meth:`merge` can keep the freshest value across snapshots."""
        with self._lock:
            items = list(self._instruments.items())
        out: dict[str, list] = {}
        for (name, labels), instrument in sorted(items, key=lambda kv: kv[0]):
            entry = {
                "labels": dict(labels),
                "kind": instrument.kind,
                "value": instrument.snapshot(),
            }
            if instrument.kind == "gauge":
                entry["updated_at"] = instrument.updated_at
            out.setdefault(name, []).append(entry)
        return out

    def merge(self, exported: dict) -> None:
        """Fold an :meth:`export`-format snapshot into this registry.

        This is how a router combines per-shard (per-process) metric
        snapshots into one fleet-wide view: counters **sum**, gauges keep
        the value with the **newest** ``updated_at`` stamp, and histograms
        **add their log-bucket counts** — so aggregate percentiles (the
        fleet p99) are computed over the union of all samples instead of
        being unmergeable per-server estimates.

        The snapshot must come from a registry at least as new as this
        code (histogram snapshots without raw ``buckets`` are rejected —
        summary stats alone cannot be merged losslessly).
        """
        for name, series in exported.items():
            for entry in series:
                labels = entry.get("labels", {})
                kind = entry.get("kind")
                value = entry.get("value")
                if kind == "counter":
                    self.counter(name, **labels).inc(float(value))
                elif kind == "gauge":
                    gauge = self.gauge(name, **labels)
                    stamp = float(entry.get("updated_at", 0.0))
                    if stamp >= gauge.updated_at:
                        gauge.value = float(value)
                        gauge.updated_at = stamp
                elif kind == "histogram":
                    if "buckets" not in value:
                        raise ValueError(
                            f"histogram snapshot {name!r} has no bucket counts; "
                            "only full snapshots (with 'buckets') can be merged"
                        )
                    incoming = Histogram.from_snapshot(value)
                    self.histogram(
                        name,
                        base=incoming.base,
                        n_buckets=incoming.n_buckets,
                        **labels,
                    ).merge(incoming)
                else:
                    raise ValueError(
                        f"cannot merge metric {name!r} of unknown kind {kind!r}"
                    )


# ----------------------------------------------------------------------
# Export readers: the one place that knows an export is
# ``{name: [{labels, kind, value}, ...]}``
# ----------------------------------------------------------------------
def _matching(export: dict, name: str, labels: dict) -> list:
    """The series under ``name`` whose labels include all of ``labels``."""
    want = _label_key(labels)
    return [
        entry
        for entry in export.get(name, ())
        if all(entry["labels"].get(k) == v for k, v in want)
    ]


def series_sum(export: dict, name: str, **labels) -> float:
    """Sum of the counter / gauge series under ``name`` that carry
    ``labels`` (every series when none are given; 0.0 when absent)."""
    return float(sum(entry["value"] for entry in _matching(export, name, labels)))


def histogram_stat(export: dict, name: str, stat: str, **labels) -> float:
    """One :meth:`Histogram.snapshot` statistic (``count``, ``mean``,
    ``max``, ``p50``, ``p99``, ``total``) over the histogram series under
    ``name`` that carry ``labels``, their buckets added; 0.0 when absent."""
    merged = None
    for entry in _matching(export, name, labels):
        hist = Histogram.from_snapshot(entry["value"])
        if merged is None:
            merged = hist
        else:
            merged.merge(hist)
    return float(merged.snapshot()[stat]) if merged is not None else 0.0


#: The process-wide default registry: build/query/perf instrumentation
#: records here; servers keep their own registries (see ``ServerStats``)
#: so per-server counts stay separable.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return REGISTRY
