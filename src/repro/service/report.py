"""Aggregated batch results: one report for N workers' worth of work.

Each worker compiles in its own process with its own trace session and
cache; :class:`BatchResult` merges those observability streams back
into a single picture:

* **counters** live only in each job's metrics snapshot and are summed
  by the registry merge below (plus batch-level counters for job
  statuses and retries);
* **cache statistics** are read from those merged counters through
  :data:`repro.cache.CACHE_COUNTERS`, so ``hits + misses`` equals the
  number of compile attempts that actually ran — the add-up invariant
  the stress tests assert;
* **remarks** are concatenated in job submission order, each tagged
  with its job id;
* **trace spans** are re-based from each worker's private clock onto
  the parent timeline using the wall-clock origin the worker recorded
  at job start, and exported as one Chrome trace with one ``tid`` per
  worker process — a batch renders as parallel swimlanes in Perfetto;
* **metric registries** (queue-wait/execution histograms, per-layer
  cache latencies, per-pass times) ship as
  :meth:`~repro.observe.telemetry.MetricsRegistry.snapshot` dicts in
  each result and merge associatively — the merged registry is
  bit-identical whether the batch ran on one worker or sixteen;
* **events** are re-based like spans, tagged with their job id, and
  exported as a JSONL stream whose ``span_id`` values join rows to the
  Chrome trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.cache import CACHE_COUNTERS
from repro.observe.telemetry import MetricsRegistry, counter_view, merged
from repro.service.jobs import JobResult

BATCH_SCHEMA = "repro-batch-report-v2"


@dataclass
class BatchResult:
    """Everything produced by one :meth:`CompileService.compile_batch`."""

    results: "list[JobResult]"
    wall_s: float
    #: ``time.time()`` in the parent when the batch started (spans are
    #: re-based against this).
    wall_origin: float
    workers: int
    rebuilds: int = 0

    # -- convenience views ---------------------------------------------

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def by_status(self) -> "dict[str, int]":
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    def failed(self) -> "list[JobResult]":
        return [result for result in self.results if not result.ok]

    # -- aggregation ----------------------------------------------------

    def counters(self) -> "dict[str, int]":
        """The merged registry's counters; ``batch.rebuilds`` is always
        present (0 for a batch that never rebuilt its pool)."""
        counters = self.metrics_registry().counters
        counters.setdefault("batch.rebuilds", self.rebuilds)
        return counters

    def cache_stats(self) -> "dict[str, int]":
        """Compile-cache statistics summed over every job a worker ran
        (empty when none did)."""
        if not any(result.metrics for result in self.results):
            return {}
        return counter_view(self.counters(), CACHE_COUNTERS)

    def remarks(self) -> "list[dict]":
        out: list[dict] = []
        for result in self.results:
            for remark in result.remarks:
                tagged = dict(remark)
                tagged["job_id"] = result.job_id
                out.append(tagged)
        return out

    def metrics_registry(self) -> MetricsRegistry:
        """All workers' registry snapshots merged into one, plus the
        batch-level counters (job statuses, attempts, rebuilds).

        Merge is associative and order-independent, so the metric set —
        and every histogram's counts — is identical whether the batch
        ran under ``--jobs 1`` or ``--jobs 16``.
        """
        registry = merged([result.metrics for result in self.results])
        for status, count in self.by_status().items():
            registry.counter(f"batch.jobs_{status}", count)
        registry.counter("batch.attempts",
                         sum(r.attempts for r in self.results))
        if self.rebuilds:
            registry.counter("batch.rebuilds", self.rebuilds)
        registry.gauge("batch.workers", self.workers)
        return registry

    def events(self) -> "list[dict]":
        """All workers' events on the parent timeline, tagged with
        their job id, in timestamp order."""
        out: list[dict] = []
        for result in self.results:
            offset_s = max(result.wall_origin - self.wall_origin, 0.0)
            for event in result.events:
                rebased = dict(event)
                rebased["ts_s"] = round(
                    offset_s + event.get("ts_s", 0.0), 6)
                rebased["job_id"] = result.job_id
                out.append(rebased)
        out.sort(key=lambda e: e.get("ts_s", 0.0))
        return out

    # -- exports --------------------------------------------------------

    def to_report(self) -> dict:
        """One JSON-serializable document for ``--metrics-json``."""
        registry = self.metrics_registry()
        return {
            "schema": BATCH_SCHEMA,
            "workers": self.workers,
            "wall_s": round(self.wall_s, 6),
            "rebuilds": self.rebuilds,
            "jobs": [result.to_dict() for result in self.results],
            "by_status": self.by_status(),
            "counters": self.counters(),
            "cache": self.cache_stats(),
            "metrics": {
                "snapshot": registry.snapshot(),
                "summary": registry.summaries(),
            },
        }

    def write_report(self, path: str) -> None:
        from repro.observe.metrics import atomic_write_text
        atomic_write_text(
            path, json.dumps(self.to_report(), indent=2) + "\n")

    def write_prometheus(self, path: str) -> None:
        """Prometheus text exposition of the merged batch registry."""
        from repro.observe.expo import write_prometheus
        write_prometheus(path, self.metrics_registry().snapshot())

    def write_events(self, path: str) -> None:
        """JSONL event stream (one object per line, parent timeline)."""
        from repro.observe.events import write_events_jsonl
        write_events_jsonl(path, self.events())

    def to_chrome_trace(self) -> dict:
        """All workers' spans on the parent timeline, one tid per
        worker pid, plus a parent-level span covering the batch."""
        events = [{
            "name": "batch", "cat": "service", "ph": "X",
            "ts": 0.0, "dur": round(self.wall_s * 1e6, 3),
            "pid": 1, "tid": 0,
            "args": {"workers": self.workers,
                     "jobs": len(self.results),
                     "rebuilds": self.rebuilds},
        }]
        for result in self.results:
            # Worker span starts are relative to the worker session's
            # origin == job start; re-base via the wall-clock offset
            # between job start and batch start.
            offset_s = max(result.wall_origin - self.wall_origin, 0.0)
            tid = result.worker_pid or 1
            for span in result.spans:
                events.append({
                    "name": span["name"],
                    "cat": span["category"],
                    "ph": "X",
                    "ts": round((offset_s + span["start_s"]) * 1e6, 3),
                    "dur": round(span["duration_s"] * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "args": dict(span["args"], job_id=result.job_id,
                                 span_id=span.get("id", 0)),
                })
        end_us = round(self.wall_s * 1e6, 3)
        for name, value in sorted(self.counters().items()):
            events.append({
                "name": name, "cat": "counter", "ph": "C",
                "ts": end_us, "pid": 1, "tid": 0,
                "args": {"value": value},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        from repro.observe.metrics import atomic_write_text
        atomic_write_text(
            path, json.dumps(self.to_chrome_trace(), indent=1) + "\n")
