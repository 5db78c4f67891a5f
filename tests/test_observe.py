"""Tests for the observability layer: trace sessions, optimization
remarks, hotspot line attribution, and metrics reports.

The heavyweight checks here are differential: both simulator backends
must agree *exactly* on per-line cycle attribution for every example
kernel, and every loop the vectorizer leaves scalar must carry a
``missed`` remark naming the reason.
"""

import sys
from pathlib import Path

import pytest

from helpers import assert_cycles_pinned, requires_gcc
from repro import cache
from repro.compiler import arg, compile_source
from repro.observe import Remark, TraceSession, trace as obs_trace
from repro.observe import remarks as obs_remarks
from repro.observe.hotspots import annotate_source, line_table
from repro.observe.metrics import SCHEMA, build_report

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402  (needs the path tweak above)


@pytest.fixture(autouse=True)
def fresh_cache():
    cache.clear()
    yield
    cache.clear()


# ---------------------------------------------------------------------
# TraceSession mechanics
# ---------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


def test_span_nesting_and_durations():
    clock = FakeClock()
    session = TraceSession(clock=clock)
    with session.span("outer") as outer:
        clock.advance(1.0)
        with session.span("inner", "stage", detail=7) as inner:
            clock.advance(0.5)
        clock.advance(0.25)
    assert outer.depth == 0 and inner.depth == 1
    assert inner.start == pytest.approx(1.0)
    assert inner.duration == pytest.approx(0.5)
    assert outer.duration == pytest.approx(1.75)
    assert inner.args == {"detail": 7}
    assert [s.name for s in session.spans] == ["outer", "inner"]


def test_span_set_attaches_args():
    session = TraceSession()
    with session.span("s") as span:
        span.set(cycles=42)
    assert session.spans[0].args["cycles"] == 42


def test_counters_accumulate():
    session = TraceSession()
    session.counter("cache.hit")
    session.counter("cache.hit")
    session.counter("sim.runs", 3)
    assert session.metrics.counters == {"cache.hit": 2, "sim.runs": 3}


def test_disabled_session_is_inert_and_allocation_free():
    session = TraceSession(enabled=False)
    a = session.span("x")
    b = session.span("y", "cat", k=1)
    assert a is b  # the shared no-op span, not fresh objects
    with a as span:
        span.set(anything=1)
    session.counter("n")
    session.remark(Remark("missed", "p", "m"))
    other = TraceSession()
    other.counter("n")
    other.observe("t_s", 0.5)
    session.metrics.merge(other.metrics)
    assert session.spans == []
    assert session.metrics.counters == {}
    assert session.metrics.snapshot()["histograms"] == {}
    assert session.remarks == []


def test_ambient_session_stack():
    assert not obs_trace.current().enabled
    outer, inner = TraceSession(), TraceSession()
    with obs_trace.use(outer):
        assert obs_trace.current() is outer
        with obs_trace.use(inner):
            assert obs_trace.current() is inner
        assert obs_trace.current() is outer
    assert not obs_trace.current().enabled


def test_ambient_session_is_isolated_across_threads():
    # Regression: the ambient stack used to be a process-global list,
    # so two concurrent sessions saw (and popped!) each other's
    # entries.  With a ContextVar each thread starts with a fresh,
    # empty stack and counters never cross-contaminate.
    import threading

    barrier = threading.Barrier(2)
    sessions = {}
    errors = []

    def run(name):
        session = TraceSession()
        sessions[name] = session
        try:
            with obs_trace.use(session):
                barrier.wait(timeout=10)
                # Both threads are inside their own session now.
                if obs_trace.current() is not session:
                    errors.append(f"{name}: foreign ambient session")
                obs_trace.current().counter(f"only.{name}")
                barrier.wait(timeout=10)
            if obs_trace.current().enabled:
                errors.append(f"{name}: stack not restored")
        except Exception as exc:  # pragma: no cover - fail loudly
            errors.append(f"{name}: {exc!r}")

    threads = [threading.Thread(target=run, args=(n,))
               for n in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert sessions["a"].metrics.counters == {"only.a": 1}
    assert sessions["b"].metrics.counters == {"only.b": 1}


def test_ambient_session_is_isolated_across_asyncio_tasks():
    # Each asyncio task copies the context at creation, so sibling
    # tasks entering their own sessions must never observe each other.
    import asyncio

    async def one(name, gate):
        session = TraceSession()
        with obs_trace.use(session):
            await gate.wait()  # force interleaving with the sibling
            assert obs_trace.current() is session
            obs_trace.current().counter(f"task.{name}")
        assert not obs_trace.current().enabled
        return session

    async def main():
        gate = asyncio.Event()
        tasks = [asyncio.create_task(one(n, gate)) for n in ("a", "b")]
        await asyncio.sleep(0)  # both tasks park on the gate
        gate.set()
        return await asyncio.gather(*tasks)

    first, second = asyncio.run(main())
    assert first.metrics.counters == {"task.a": 1}
    assert second.metrics.counters == {"task.b": 1}


def test_remark_helpers_route_to_ambient_session():
    session = TraceSession()
    with obs_trace.use(session):
        obs_remarks.missed("simd-vectorize", "why not", function="f",
                           line=3, step=2)
        obs_remarks.passed("licm", "hoisted", function="f", line=4)
        obs_remarks.analysis("pass-manager", "note", function="f")
    kinds = [r.kind for r in session.remarks]
    assert kinds == ["missed", "passed", "analysis"]
    assert session.remarks[0].args == {"step": 2}
    # Outside any session nothing is recorded anywhere.
    obs_remarks.missed("simd-vectorize", "dropped", function="f")
    assert len(session.remarks) == 3


def test_remark_format_and_dict():
    remark = Remark("missed", "simd-vectorize", "loop step is 2",
                    function="f", line=9, args={"step": 2})
    text = remark.format("kernel.m")
    assert text == ("kernel.m:9: missed [simd-vectorize] in f: "
                    "loop step is 2")
    data = remark.to_dict()
    assert data["kind"] == "missed" and data["line"] == 9
    assert data["args"] == {"step": 2}


def test_chrome_trace_schema():
    clock = FakeClock()
    session = TraceSession(clock=clock)
    with session.span("compile", "compile"):
        clock.advance(0.002)
    session.counter("cache.miss")
    data = session.to_chrome_trace()
    assert data["displayTimeUnit"] == "ms"
    x_events = [e for e in data["traceEvents"] if e["ph"] == "X"]
    c_events = [e for e in data["traceEvents"] if e["ph"] == "C"]
    assert len(x_events) == 1 and len(c_events) == 1
    assert x_events[0]["dur"] == pytest.approx(2000.0)  # microseconds
    assert c_events[0]["args"]["value"] == 1
    for event in data["traceEvents"]:
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)


# ---------------------------------------------------------------------
# Compile-side instrumentation
# ---------------------------------------------------------------------

REDUCE = """
function s = f(x)
n = length(x);
s = 0;
for i = 1:n
    s = s + x(i);
end
end
"""


def test_compile_records_spans_and_remarks():
    session = TraceSession()
    with obs_trace.use(session):
        result = compile_source(REDUCE, [arg((1, 32))])
    names = [s.name for s in session.spans]
    assert "compile" in names and "parse" in names and "simd" in names
    pass_spans = [s for s in session.spans if s.category == "pass"]
    assert pass_spans, "PassManager should emit one span per pass run"
    assert result.remarks, "vectorizing the loop should leave a remark"
    assert any(r.kind == "passed" and r.pass_name == "simd-vectorize"
               for r in result.remarks)


def test_result_remarks_available_without_a_session():
    result = compile_source(REDUCE, [arg((1, 32))])
    assert any(r.pass_name == "simd-vectorize" for r in result.remarks)
    assert result.trace is not None
    assert any(s.name == "compile" for s in result.trace.spans)


def test_cache_hit_counters_and_provenance():
    session = TraceSession()
    with obs_trace.use(session):
        first = compile_source(REDUCE, [arg((1, 32))])
        second = compile_source(REDUCE, [arg((1, 32))])
    assert second is first
    assert second.cache_hits == 1
    assert session.metrics.counters["cache.miss"] == 1
    assert session.metrics.counters["cache.hit"] == 1
    # Provenance: the cached result keeps the original stage timings.
    assert second.stage_times and "total" in second.stage_times


def test_pass_manager_rounds_stats():
    result = compile_source(REDUCE, [arg((1, 32))])
    rounds = {k: v for k, v in result.pass_stats.items()
              if k.startswith("rounds[")}
    assert rounds, "per-function round counts should be recorded"
    assert all(v >= 1 for v in rounds.values())


def test_pass_manager_fixpoint_warning_remark():
    from repro.ir.passes.manager import PassManager

    class Restless:
        name = "restless"

        def run(self, func):
            return True  # never converges

    from repro.frontend.parser import parse
    from repro.ir.builder import lower_program
    from repro.semantics.inference import specialize_program

    sprog = specialize_program(parse("function y = f(x)\ny = x + 1;\nend"),
                               "f", [arg((1, 4))])
    module = lower_program(sprog, mode="fused")

    session = TraceSession()
    with obs_trace.use(session):
        manager = PassManager([Restless()], max_rounds=3)
        manager.run(module)
    warnings = [r for r in session.remarks
                if r.pass_name == "pass-manager" and r.kind == "analysis"]
    assert warnings and "max_rounds=3" in warnings[0].message


# ---------------------------------------------------------------------
# Remarks coverage: every scalar loop must say why
# ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fir", "iir", "cdot", "fft", "matmul",
                                  "xcorr"])
def test_every_example_kernel_loop_has_a_remark(name):
    """Each example kernel compile leaves simd-vectorize remarks, and
    every ``missed`` remark names a concrete reason."""
    w = workloads.workload_by_name(name)
    result = compile_source(w.source, w.arg_types, entry=w.entry,
                            filename=f"{w.entry}.m")
    simd = [r for r in result.remarks if r.pass_name == "simd-vectorize"]
    assert simd, f"{name}: no vectorizer remarks at all"
    for remark in simd:
        assert remark.kind in ("passed", "missed")
        assert remark.message
        assert remark.line > 0, "remarks must map to a source line"
        if remark.kind == "missed":
            # The message must carry an actual reason, not a stub.
            assert len(remark.message) > 15


def test_missed_remark_reasons_are_specific():
    stride2 = """
function y = f(x)
n = length(x);
y = zeros(1, n);
for i = 1:2:n
    y(i) = x(i) * 2;
end
end
"""
    result = compile_source(stride2, [arg((1, 32))])
    missed = [r for r in result.remarks
              if r.pass_name == "simd-vectorize" and r.kind == "missed"]
    assert any("step is 2" in r.message for r in missed)
    assert all(r.line == 5 for r in missed)


# ---------------------------------------------------------------------
# Hotspots: differential backend agreement
# ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fir", "iir", "cdot", "fft", "matmul",
                                  "xcorr", "channel_est", "qr_gs",
                                  "inv3x3", "bf_weights"])
def test_hotspot_backends_agree_exactly(name):
    # The per-line table sums to the total, and both equal the pin.
    w = workloads.workload_by_name(name)
    result = compile_source(w.source, w.arg_types, entry=w.entry,
                            filename=f"{w.entry}.m")
    run = result.simulate(w.inputs(seed=3), hotspots=True)
    assert sum(run.line_cycles.values()) == run.report.total
    assert_cycles_pinned(f"workload/{name}", w.source, run)


def test_hotspots_require_profiled_run():
    result = compile_source(REDUCE, [arg((1, 8))])
    import numpy as np
    run = result.simulate([np.arange(8.0)])
    assert run.line_cycles is None
    with pytest.raises(ValueError, match="hotspots=True"):
        run.hotspots()


def test_hotspots_table_sorted_hottest_first():
    assert line_table({3: 10, 7: 50, 2: 10}) == [(7, 50), (2, 10), (3, 10)]


def test_annotate_source_renders_all_lines():
    import numpy as np
    result = compile_source(REDUCE, [arg((1, 16))],
                            filename="reduce.m")
    run = result.simulate([np.arange(16.0)], hotspots=True)
    text = annotate_source(result.source, run.line_cycles)
    assert f"total cycles: {run.report.total}" in text
    assert "for i = 1:n" in text
    assert "s = s + x(i);" in text


# ---------------------------------------------------------------------
# Metrics reports
# ---------------------------------------------------------------------


def test_build_report_shape():
    import numpy as np
    session = TraceSession()
    with obs_trace.use(session):
        result = compile_source(REDUCE, [arg((1, 16))])
        run = result.simulate([np.arange(16.0)], hotspots=True)
    report = build_report(result=result, run=run, session=session)
    assert report["schema"] == SCHEMA
    assert report["compile"]["entry"] == result.entry_name
    assert report["compile"]["remarks"]
    assert report["simulation"]["cycles"] == run.report.total
    hot = report["simulation"]["hotspots"]
    assert sum(row["cycles"] for row in hot) == run.report.total
    assert report["counters"]["sim.runs"] == 1
    assert any(s["name"] == "simulate" for s in report["spans"])
    assert "cache" in report
    # The whole report must be JSON-serializable.
    import json
    json.dumps(report)


def _assert_counts_agree(session, stats: dict, section: str) -> None:
    """``stats()`` (less its size/loaded field) equals the report section
    rebuilt from the session's counters, field for field."""
    stats = {k: v for k, v in stats.items() if k not in ("size", "loaded")}
    assert build_report(session=session)[section] == stats


def test_compile_cache_stats_agree_with_report(tmp_path):
    """Every compile-cache event is counted once: the cache's own
    ``stats()`` and the per-run report section read the same counts."""
    import pickle

    payload = {"blob": "x" * 64}
    keys = [c * 64 for c in "abcd"]
    # Published by another cache, outside the session: a disk hit later.
    cache.CompilationCache(cache_dir=tmp_path).put(keys[1], payload)
    store = cache.CompilationCache(maxsize=2, cache_dir=tmp_path)
    session = TraceSession()
    with obs_trace.use(session):
        assert store.get(keys[0]) is None                  # miss
        store.put(keys[0], payload)
        _assert_counts_agree(session, store.stats(), "cache")
        assert store.get(keys[0]) == payload               # memory hit
        _assert_counts_agree(session, store.stats(), "cache")
        assert store.get(keys[1]) == payload               # disk hit
        assert store.stats()["disk_hits"] == 1
        _assert_counts_agree(session, store.stats(), "cache")
        skewed = tmp_path / keys[2][:2] / f"{keys[2]}.pkl"
        skewed.parent.mkdir(parents=True, exist_ok=True)
        skewed.write_bytes(pickle.dumps({"schema": "repro-cache-v0",
                                         "result": payload}))
        assert store.get(keys[2]) is None                  # schema skew
        assert store.stats()["disk_schema_skews"] == 1
        _assert_counts_agree(session, store.stats(), "cache")
        store.put(keys[3], payload)                        # eviction
        assert store.stats()["evictions"] == 1
        _assert_counts_agree(session, store.stats(), "cache")


@requires_gcc
def test_native_cache_stats_agree_with_report(tmp_path):
    """Same agreement for the native artifact cache, where a hit served
    from a published ``.so`` counts as both a cache hit and a disk
    hit."""
    from repro.native import NativeCache

    sources = [f"int repro_probe_{i}(void) {{ return {i}; }}\n"
               for i in range(3)]
    # Published by another cache, outside the session: a disk hit later.
    NativeCache(cache_dir=tmp_path).warm(sources[1])
    store = NativeCache(cache_dir=tmp_path, disk_limit=2)
    session = TraceSession()
    with obs_trace.use(session):
        store.load(sources[0])                             # build
        _assert_counts_agree(session, store.stats(), "native")
        store.load(sources[0])                             # memory hit
        _assert_counts_agree(session, store.stats(), "native")
        store.load(sources[1])                             # disk hit
        assert store.stats()["disk_hits"] == 1
        assert store.stats()["cache_hits"] == 2
        _assert_counts_agree(session, store.stats(), "native")
        assert store.warm(sources[1]) is False             # published
        assert store.stats()["disk_hits"] == 2
        assert store.stats()["cache_hits"] == 3
        _assert_counts_agree(session, store.stats(), "native")
        assert store.warm(sources[2]) is True              # eviction
        assert store.stats()["evictions"] == 1
        _assert_counts_agree(session, store.stats(), "native")


def test_build_report_compile_only():
    result = compile_source(REDUCE, [arg((1, 16))])
    report = build_report(result=result)
    assert "simulation" not in report and "spans" not in report
    assert report["compile"]["cache_hits"] == 0
