"""Tests for the metrics registry, its exposition surfaces, and the
``repro-stats`` gate.

The load-bearing property is **merge exactness**: histograms quantize
observations to integer nanoseconds on a fixed bucket grid, so merging
worker snapshots is associative and order-independent — sharding a
workload over N processes and merging yields *bit-identical* registry
state to observing serially.  Hypothesis proves it below; the parallel
compilation service and the sharded fuzzer both lean on it.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.observe.events import format_events
from repro.observe.expo import metric_name, to_prometheus
from repro.observe.metrics import (SCHEMA, atomic_write_text,
                                   build_report)
from repro.observe.stats_cli import main as stats_main
from repro.observe.telemetry import (BOUNDS, BUCKET_LAYOUT,
                                     SNAPSHOT_SCHEMA, Histogram,
                                     MetricsRegistry, merged)
from repro.observe.trace import TraceSession


# latencies spanning the full grid: sub-bucket (ns) to near the 100 s
# overflow bucket
latency = st.floats(min_value=0.0, max_value=200.0,
                    allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------
# Histogram mechanics
# ---------------------------------------------------------------------


def test_histogram_summary_fields():
    histogram = Histogram()
    for seconds in (0.001, 0.002, 0.004, 0.100):
        histogram.observe_ns(int(seconds * 1e9))
    digest = histogram.summary()
    assert digest["count"] == 4
    assert digest["min_s"] == pytest.approx(0.001)
    assert digest["max_s"] == pytest.approx(0.100)
    assert digest["min_s"] <= digest["p50_s"] <= digest["p99_s"] \
        <= digest["max_s"]
    assert digest["sum_s"] == pytest.approx(0.107)


def test_empty_histogram_summary():
    assert Histogram().summary() == {"count": 0}
    assert Histogram().percentile_ns(0.5) is None


def test_layout_mismatch_merge_is_an_error():
    histogram = Histogram()
    with pytest.raises(ValueError, match="bucket layout"):
        histogram.merge({"layout": "ns-999-v0", "counts": [], "count": 0,
                         "sum_ns": 0})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2 * 10 ** 11),
                min_size=1, max_size=200),
       st.sampled_from([0.50, 0.90, 0.99]))
# Interpolating inside the overflow bucket once truncated onto its
# lower bound, which belongs to the last finite bucket.
@example(values=[0, 100_000_000_001, 100_000_000_001], q=0.5)
def test_percentile_matches_numpy_bucket(values, q):
    """The rank-interpolated estimate lands in the same bucket as the
    exact nearest-rank quantile numpy computes from the raw samples."""
    from bisect import bisect_left

    histogram = Histogram()
    for value in values:
        histogram.observe_ns(value)
    estimate = histogram.percentile_ns(q)
    exact = int(np.quantile(np.array(values), q,
                            method="inverted_cdf"))
    assert bisect_left(BOUNDS, estimate) == bisect_left(BOUNDS, exact)


# ---------------------------------------------------------------------
# Merge exactness (the service/fuzzer aggregation invariant)
# ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(latency, max_size=30), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_shard_merge_is_bit_identical_to_serial(shards, rng):
    serial = MetricsRegistry()
    snapshots = []
    for shard_index, shard in enumerate(shards):
        worker = MetricsRegistry()
        for seconds in shard:
            serial.observe("exec_s", seconds)
            worker.observe("exec_s", seconds)
        serial.counter("jobs", len(shard))
        worker.counter("jobs", len(shard))
        snapshots.append(worker.snapshot())
    rng.shuffle(snapshots)  # order independence, not just associativity
    assert merged(snapshots).snapshot() == serial.snapshot()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(latency, max_size=20), min_size=2, max_size=6))
def test_merge_is_associative(shards):
    """((a+b)+c)+... == a+(b+(c+...)) on the serialized state."""
    snapshots = []
    for shard in shards:
        worker = MetricsRegistry()
        for seconds in shard:
            worker.observe("exec_s", seconds)
        snapshots.append(worker.snapshot())

    left = MetricsRegistry()
    for snapshot in snapshots:
        left.merge(snapshot)

    def fold_right(items):
        registry = MetricsRegistry()
        registry.merge(items[0])
        if len(items) > 1:
            registry.merge(fold_right(items[1:]).snapshot())
        return registry

    assert left.snapshot() == fold_right(snapshots).snapshot()


def test_counters_add_and_gauges_max_on_merge():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("n", 3)
    b.counter("n", 4)
    a.gauge("peak", 2.0)
    b.gauge("peak", 7.0)
    a.merge(b)
    snapshot = a.snapshot()
    assert snapshot["schema"] == SNAPSHOT_SCHEMA
    assert snapshot["counters"] == {"n": 7}
    assert snapshot["gauges"] == {"peak": 7.0}


def test_disabled_registry_records_nothing():
    registry = MetricsRegistry(enabled=False)
    registry.counter("n")
    registry.gauge("g", 1.0)
    registry.observe("h_s", 0.5)
    assert registry.snapshot()["counters"] == {}
    assert registry.snapshot()["histograms"] == {}


# ---------------------------------------------------------------------
# Session integration: counters mirror, events carry span ids
# ---------------------------------------------------------------------


def test_session_counter_mirrors_into_registry():
    session = TraceSession()
    session.counter("cache.hit", 2)
    session.observe("get_s", 0.25)
    snapshot = session.metrics.snapshot()
    assert snapshot["counters"]["cache.hit"] == 2
    assert snapshot["histograms"]["get_s"]["count"] == 1


def test_events_carry_enclosing_span_id():
    session = TraceSession()
    with session.span("outer") as span:
        session.event("thing.happened", detail=7)
    assert span.id > 0
    event = session.events[0]
    assert event["kind"] == "thing.happened"
    assert event["span_id"] == span.id
    assert event["detail"] == 7
    # The span id also appears in the Chrome trace args: the join key.
    trace = session.to_chrome_trace()
    span_events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert any(e["args"].get("span_id") == span.id for e in span_events)


def test_disabled_session_collects_no_metrics_or_events():
    session = TraceSession(enabled=False)
    session.observe("h_s", 1.0)
    session.event("kind")
    assert session.events == []
    assert session.metrics.snapshot()["histograms"] == {}


# ---------------------------------------------------------------------
# Exposition: Prometheus text, JSONL events, atomic publish
# ---------------------------------------------------------------------


def test_metric_name_sanitization():
    assert metric_name("cache.mem_hit_s") == "repro_cache_mem_hit_seconds"
    assert metric_name("sim.runs") == "repro_sim_runs"


def test_prometheus_exposition_is_well_formed():
    registry = MetricsRegistry()
    registry.counter("cache.hit", 5)
    registry.gauge("batch.workers", 4)
    for seconds in (0.0001, 0.001, 0.5):
        registry.observe("exec_s", seconds)
    text = to_prometheus(registry.snapshot())
    assert text.endswith("\n")
    lines = text.splitlines()
    import re
    sample = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? [-+0-9.e]+(\d|inf)?$')
    for line in lines:
        assert line.startswith("# TYPE ") or sample.match(line), line
    assert "repro_cache_hit_total 5" in lines
    assert "repro_batch_workers 4.0" in lines
    assert 'repro_exec_seconds_bucket{le="+Inf"} 3' in lines
    assert "repro_exec_seconds_count 3" in lines
    # Cumulative bucket counts never decrease.
    buckets = [int(line.rsplit(" ", 1)[1]) for line in lines
               if line.startswith("repro_exec_seconds_bucket")]
    assert buckets == sorted(buckets)


def test_events_jsonl_round_trips():
    session = TraceSession()
    session.event("a", x=1)
    session.event("b", y="text")
    text = format_events(session.events)
    parsed = [json.loads(line) for line in text.splitlines()]
    assert [event["kind"] for event in parsed] == ["a", "b"]
    assert parsed[0]["x"] == 1


def test_atomic_write_failure_preserves_previous_file(tmp_path,
                                                      monkeypatch):
    target = tmp_path / "report.json"
    atomic_write_text(str(target), "original")
    real_replace = os.replace

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError):
        atomic_write_text(str(target), "clobbered")
    monkeypatch.setattr(os, "replace", real_replace)
    assert target.read_text() == "original"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


# ---------------------------------------------------------------------
# Schema v2 golden report
# ---------------------------------------------------------------------


def test_build_report_schema_v2_golden_keys():
    from repro.compiler import compile_source
    from repro.observe import trace as obs_trace

    session = TraceSession()
    with obs_trace.use(session):
        from repro.compiler import arg
        result = compile_source(
            "function y = f(x)\ny = x + 1.0;\nend",
            args=[arg((1, 8))], use_cache=False)
    report = build_report(result=result, session=session)
    assert report["schema"] == SCHEMA
    # Pinned v2 layout: v1 keys survive, v2 adds metrics/events/process.
    assert set(report) == {"schema", "compile", "counters", "spans",
                           "metrics", "events", "cache", "native",
                           "process"}
    assert set(report["metrics"]) == {"snapshot", "summary"}
    snapshot = report["metrics"]["snapshot"]
    assert snapshot["schema"] == SNAPSHOT_SCHEMA
    for serialized in snapshot["histograms"].values():
        assert serialized["layout"] == BUCKET_LAYOUT
    # Per-stage compile latencies made it into the registry.
    assert any(name.startswith("compile.stage.")
               for name in snapshot["histograms"])
    # The cache section is scoped to this run's deltas (one uncached
    # compile: no hits), while process-wide totals live under process.
    assert report["cache"]["hits"] == 0
    assert set(report["process"]) == {"cache", "native"}
    json.dumps(report)  # fully serializable


# ---------------------------------------------------------------------
# repro-stats
# ---------------------------------------------------------------------


BENCH = {
    "experiment": "E-test",
    "kernels": [
        {"kernel": "fir", "compiled_wall_s": 0.004,
         "reference_wall_s": 0.023, "cycle_speedup": 6.6},
        {"kernel": "fft", "compiled_wall_s": 0.002,
         "reference_wall_s": 0.026, "cycle_speedup": 1.6},
    ],
    "aggregate": {"compiled_wall_s": 0.006, "reference_wall_s": 0.049},
}


def _write(path, document):
    path.write_text(json.dumps(document, indent=2))
    return str(path)


def test_stats_check_passes_on_identical_runs(tmp_path, capsys):
    base = _write(tmp_path / "base.json", BENCH)
    fresh = _write(tmp_path / "fresh.json", BENCH)
    assert stats_main(["check", fresh, "--against", base,
                       "--tolerance", "0.5"]) == 0
    assert "OK" in capsys.readouterr().out


def test_stats_check_fails_on_slowed_run(tmp_path, capsys):
    slowed = json.loads(json.dumps(BENCH))
    for row in slowed["kernels"]:
        row["compiled_wall_s"] *= 10
    base = _write(tmp_path / "base.json", BENCH)
    fresh = _write(tmp_path / "fresh.json", slowed)
    assert stats_main(["check", fresh, "--against", base,
                       "--tolerance", "0.5", "--abs-floor", "0.0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "fir.compiled_wall_s" in out


def test_stats_check_fails_on_missing_kernel(tmp_path, capsys):
    shrunk = json.loads(json.dumps(BENCH))
    shrunk["kernels"] = shrunk["kernels"][:1]
    base = _write(tmp_path / "base.json", BENCH)
    fresh = _write(tmp_path / "fresh.json", shrunk)
    assert stats_main(["check", fresh, "--against", base]) == 1
    assert "missing" in capsys.readouterr().out


def test_stats_check_tolerance_allows_noise(tmp_path):
    noisy = json.loads(json.dumps(BENCH))
    for row in noisy["kernels"]:
        row["compiled_wall_s"] *= 1.3  # inside 50% headroom
    base = _write(tmp_path / "base.json", BENCH)
    fresh = _write(tmp_path / "fresh.json", noisy)
    assert stats_main(["check", fresh, "--against", base,
                       "--tolerance", "0.5"]) == 0


def test_stats_check_committed_trajectories_self_consistent():
    """The committed BENCH files gate cleanly against themselves."""
    for name in ("BENCH_e1.json", "BENCH_native.json"):
        path = os.path.join(os.path.dirname(__file__), "..",
                            "benchmarks", "results", name)
        assert stats_main(["check", path, "--against", path,
                           "--tolerance", "0.0"]) == 0


def test_stats_show_and_diff_smoke(tmp_path, capsys):
    base = _write(tmp_path / "base.json", BENCH)
    slowed = json.loads(json.dumps(BENCH))
    slowed["kernels"][0]["compiled_wall_s"] = 0.008
    fresh = _write(tmp_path / "fresh.json", slowed)
    assert stats_main(["show", base]) == 0
    out = capsys.readouterr().out
    assert "fir" in out and "compiled_wall_s" in out
    assert stats_main(["diff", base, fresh]) == 0
    out = capsys.readouterr().out
    assert "fir.compiled_wall_s" in out and "+100" in out


# ---------------------------------------------------------------------
# Batch aggregation: jobs=1 and jobs=N expose the same metric set
# ---------------------------------------------------------------------


def _batch(jobs):
    from repro.service.jobs import CompileJob, next_job_id
    from repro.service.pool import CompileService

    compile_jobs = [
        CompileJob(job_id=next_job_id(f"m{tag}"),
                   source=(f"function y = k{tag}(x)\n"
                           f"y = x * {tag}.0 + 1.0;\nend"),
                   args=["double:1x16"])
        for tag in range(4)]
    with CompileService(jobs=jobs) as service:
        return service.compile_batch(compile_jobs)


def test_batch_metric_set_is_identical_across_worker_counts():
    serial = _batch(1).to_report()["metrics"]["snapshot"]
    parallel = _batch(2).to_report()["metrics"]["snapshot"]
    assert set(serial["histograms"]) == set(parallel["histograms"])
    assert set(serial["counters"]) == set(parallel["counters"])
    for name in ("service.queue_wait_s", "service.exec_s"):
        assert serial["histograms"][name]["count"] == 4
        assert parallel["histograms"][name]["count"] == 4
