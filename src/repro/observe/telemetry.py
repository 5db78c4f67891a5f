"""Process-wide metrics registry: counters, gauges, latency histograms.

A :class:`MetricsRegistry` is the aggregation substrate underneath the
trace layer: where spans answer "what happened *when* in this run",
the registry answers "what is the *distribution*" — how many cache
hits, what is the p99 compile-job latency — in a form that survives
process boundaries and merges exactly.

Three metric kinds:

* **counters** — monotonically accumulated named integers.  This is
  the one counter store of a :class:`~repro.observe.trace.TraceSession`
  (``session.counter()`` writes here); caches that keep process-wide
  tallies name them with the same vocabulary and project them into
  ``stats()`` fields with :func:`counter_view`.
* **gauges** — last-known level values.  Gauges merge by ``max``, so
  name them for peaks (``service.queue_depth_peak``) when they must
  aggregate meaningfully across shards.
* **histograms** — fixed-bucket latency distributions.  Observations
  are quantized to **integer nanoseconds** and bucketed against a
  shared 1-2-5 log grid, so every histogram field (bucket counts, sum,
  min, max) is an integer and :meth:`MetricsRegistry.merge` is exactly
  associative and order-independent: merging N worker snapshots in any
  grouping yields bit-identical state to observing serially.  That is
  the invariant that lets the parallel compilation service ship
  per-worker snapshots back inside ``JobResult`` and aggregate them in
  the parent (``tests/test_telemetry.py`` proves it with hypothesis).

Registries serialize with :meth:`snapshot` (plain JSON-able dict) and
deserialize/accumulate with :meth:`merge`, which accepts either another
registry or a snapshot dict.  Summaries (:meth:`summaries`) render
p50/p90/p99 estimates by rank-interpolating within the bucket that
contains the requested rank — deterministic given the counts, hence
also merge-order independent.

Thread safety: one lock per registry around every mutation; snapshots
are consistent cuts.  A disabled registry (``enabled=False``) swallows
everything behind single-``if`` guards, matching the disabled-session
overhead contract in DESIGN.md.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from math import ceil

#: Schema tag carried by every snapshot.
SNAPSHOT_SCHEMA = "repro-metrics-v1"

#: Histogram bucket layout version; merging snapshots with a different
#: layout is a hard error (summing misaligned buckets would be silent
#: corruption).
BUCKET_LAYOUT = "ns-125-v1"


def _bucket_bounds() -> "tuple[int, ...]":
    """Upper bucket bounds in nanoseconds: a 1-2-5 series from 100 ns
    to 100 s (sub-microsecond covers warm in-memory cache hits; 100 s
    covers the longest service job deadlines)."""
    bounds = []
    decade = 100
    while decade <= 100_000_000_000:
        for step in (1, 2, 5):
            bounds.append(decade * step)
        decade *= 10
    return tuple(b for b in bounds if b <= 100_000_000_000)


#: Shared bucket upper bounds (ns); one extra overflow bucket follows.
BOUNDS: "tuple[int, ...]" = _bucket_bounds()


def _to_ns(seconds: float) -> int:
    return max(0, int(round(seconds * 1e9)))


class Histogram:
    """Fixed-bucket latency histogram over integer nanoseconds."""

    __slots__ = ("counts", "count", "sum_ns", "min_ns", "max_ns")

    def __init__(self) -> None:
        self.counts = [0] * (len(BOUNDS) + 1)
        self.count = 0
        self.sum_ns = 0
        self.min_ns: "int | None" = None
        self.max_ns: "int | None" = None

    def observe_ns(self, ns: int) -> None:
        self.counts[bisect_left(BOUNDS, ns)] += 1
        self.count += 1
        self.sum_ns += ns
        if self.min_ns is None or ns < self.min_ns:
            self.min_ns = ns
        if self.max_ns is None or ns > self.max_ns:
            self.max_ns = ns

    def merge(self, other: dict) -> None:
        """Accumulate one serialized histogram into this one."""
        if other.get("layout") != BUCKET_LAYOUT:
            raise ValueError(
                f"cannot merge histogram with bucket layout "
                f"{other.get('layout')!r}; this registry uses "
                f"{BUCKET_LAYOUT!r}")
        counts = other["counts"]
        if len(counts) != len(self.counts):
            raise ValueError("histogram bucket count mismatch")
        for index, value in enumerate(counts):
            self.counts[index] += value
        self.count += other["count"]
        self.sum_ns += other["sum_ns"]
        for bound, pick in (("min_ns", min), ("max_ns", max)):
            theirs = other.get(bound)
            if theirs is not None:
                ours = getattr(self, bound)
                setattr(self, bound,
                        theirs if ours is None else pick(ours, theirs))

    def percentile_ns(self, q: float) -> "int | None":
        """Nearest-rank percentile estimate (integer ns).

        Locates the bucket containing observation #``ceil(q*count)``
        and linearly interpolates the rank's position inside the
        bucket's bounds, clamped to the exact observed min/max.  Purely
        a function of the (integer) histogram state, so the estimate is
        identical no matter how the histogram was sharded and merged.

        A bucket holds the integers in ``(lo, hi]``; the interpolation
        rounds up in exact integer arithmetic so the estimate never
        falls onto ``lo``, which belongs to the bucket below.
        """
        if self.count == 0:
            return None
        rank = min(max(1, ceil(q * self.count)), self.count)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = BOUNDS[index - 1] if index > 0 else 0
                hi = BOUNDS[index] if index < len(BOUNDS) else self.max_ns
                offset = -(-(rank - cumulative) * (hi - lo) // bucket_count)
                return min(max(lo + offset, self.min_ns), self.max_ns)
            cumulative += bucket_count
        return self.max_ns  # unreachable; counts sum to count

    def to_dict(self) -> dict:
        return {"layout": BUCKET_LAYOUT,
                "counts": list(self.counts),
                "count": self.count,
                "sum_ns": self.sum_ns,
                "min_ns": self.min_ns,
                "max_ns": self.max_ns}

    def summary(self) -> dict:
        """Human-facing seconds-valued digest (p50/p90/p99 + moments)."""
        if self.count == 0:
            return {"count": 0}
        digest = {"count": self.count,
                  "sum_s": round(self.sum_ns / 1e9, 9),
                  "mean_s": round(self.sum_ns / self.count / 1e9, 9),
                  "min_s": round(self.min_ns / 1e9, 9),
                  "max_s": round(self.max_ns / 1e9, 9)}
        for name, q in (("p50_s", 0.50), ("p90_s", 0.90),
                        ("p99_s", 0.99)):
            digest[name] = round(self.percentile_ns(q) / 1e9, 9)
        return digest


class MetricsRegistry:
    """Thread-safe counters + gauges + latency histograms."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------

    def counter(self, name: str, delta: int = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency sample (seconds) into histogram ``name``.

        By convention histogram names end in ``_s`` (seconds); the
        Prometheus exposition rewrites that suffix to ``_seconds``.
        """
        if not self.enabled:
            return
        ns = _to_ns(seconds)
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe_ns(ns)

    # -- reading -------------------------------------------------------

    @property
    def counters(self) -> "dict[str, int]":
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> dict:
        """Consistent JSON-able cut of the whole registry."""
        with self._lock:
            return {
                "schema": SNAPSHOT_SCHEMA,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {name: h.to_dict()
                               for name, h in self._histograms.items()},
            }

    def summaries(self) -> "dict[str, dict]":
        """Per-histogram digest (count/sum/mean/min/max/p50/p90/p99)."""
        with self._lock:
            return {name: h.summary()
                    for name, h in sorted(self._histograms.items())}

    # -- aggregation ---------------------------------------------------

    def merge(self, other: "MetricsRegistry | dict | None") -> None:
        """Accumulate another registry (or a :meth:`snapshot` dict).

        Exactly associative and order-independent: counters and
        histogram fields are integer sums/mins/maxes, gauges merge by
        ``max``.  A disabled registry stays empty, like its recorders.
        """
        if other is None or not self.enabled:
            return
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        if not other:
            return
        with self._lock:
            for name, value in other.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in other.get("gauges", {}).items():
                mine = self._gauges.get(name)
                self._gauges[name] = value if mine is None \
                    else max(mine, value)
            for name, serialized in other.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
                histogram.merge(serialized)


def merged(snapshots: "list[dict | None]") -> MetricsRegistry:
    """One registry accumulating every snapshot (Nones skipped)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry


def counter_view(counters: "dict[str, int]",
                 fields: "dict[str, str]") -> "dict[str, int]":
    """Stats-shaped dict: each field of ``fields`` (field -> counter
    name) read from ``counters``, 0 when the counter never fired."""
    return {field: counters.get(name, 0) for field, name in fields.items()}
