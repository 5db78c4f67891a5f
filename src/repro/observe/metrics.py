"""Machine-readable metrics reports (one JSON document per run).

:func:`build_report` assembles everything the observability layer knows
about one compile (and optionally one simulation) into a single
JSON-serializable dict.  Schema ``repro-observe-report-v2``: every v1
field is preserved under its old key (``compile``, ``simulation``,
``counters``, ``spans``, ``cache``, ``native``), with two changes of
meaning and two additions:

* ``cache`` / ``native`` are now scoped to **this run** (the session's
  counters read through the caches' own field -> counter mappings,
  :data:`repro.cache.CACHE_COUNTERS` and
  :data:`repro.native.builder.NATIVE_COUNTERS`), so two runs in one
  process no longer bleed statistics into each other's reports;
* ``process`` carries the old process-wide ``cache.stats()`` /
  ``native.stats()`` totals;
* ``metrics`` carries the session's :class:`MetricsRegistry` snapshot
  plus per-histogram p50/p90/p99 summaries;
* ``events`` counts the session's structured events (the full stream
  goes to ``--events-jsonl``).

All report/trace writers publish atomically (``mkstemp`` +
``os.replace``, the same discipline as the disk cache), so a crashed
run never leaves a truncated JSON document behind.
"""

from __future__ import annotations

import json
import os
import tempfile

SCHEMA = "repro-observe-report-v2"


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via ``mkstemp`` + atomic
    ``os.replace``: a reader (or a crash) never observes a partially
    written file.  The temp file lives in the destination directory so
    the final rename cannot cross a filesystem boundary."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)[:24]}.tmp.", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def build_report(result=None, run=None, session=None) -> dict:
    """Assemble one metrics report.

    Args:
        result: a :class:`repro.compiler.CompilationResult` (optional).
        run: a :class:`repro.sim.machine.ExecutionResult` (optional).
        session: a :class:`repro.observe.trace.TraceSession` whose
            spans/counters/metrics to include (optional).
    """
    from repro import cache, native
    from repro.native.builder import NATIVE_COUNTERS
    from repro.observe.telemetry import counter_view

    report: dict = {"schema": SCHEMA}
    if result is not None:
        report["compile"] = {
            "entry": result.entry_name,
            "processor": result.processor.name,
            "mode": result.options.mode,
            "cache_hits": result.cache_hits,
            "stage_times_s": dict(result.stage_times),
            "pass_stats": dict(result.pass_stats),
            "remarks": [remark.to_dict() for remark in result.remarks],
        }
    if run is not None:
        sim: dict = {
            "cycles": run.report.total,
            "by_category": dict(run.report.by_category),
            "instruction_counts": dict(run.report.instruction_counts),
        }
        if run.line_cycles is not None:
            sim["hotspots"] = [
                {"line": line, "cycles": cycles}
                for line, cycles in run.hotspots()
            ]
        report["simulation"] = sim
    if session is not None:
        report["counters"] = session.metrics.counters
        report["spans"] = [span.to_dict() for span in session.spans]
        report["metrics"] = {
            "snapshot": session.metrics.snapshot(),
            "summary": session.metrics.summaries(),
        }
        report["events"] = len(session.events)

    # Cache/native sections are scoped to this run: counter deltas from
    # the run's own session (falling back to the compile's private
    # session), never the process-wide totals — those live under
    # "process" so concurrent or sequential runs cannot bleed counts
    # into each other's reports.
    scope = session if session is not None else \
        (result.trace if result is not None else None)
    counters = scope.metrics.counters if scope is not None else {}
    report["cache"] = counter_view(counters, cache.CACHE_COUNTERS)
    report["native"] = counter_view(counters, NATIVE_COUNTERS)
    report["process"] = {"cache": cache.stats(), "native": native.stats()}
    return report


def write_report(path: str, report: dict) -> None:
    """Serialize one report to ``path`` as indented JSON, atomically."""
    atomic_write_text(
        path, json.dumps(report, indent=2, sort_keys=False) + "\n")


def write_chrome_trace(path: str, trace: dict) -> None:
    """Serialize one Chrome trace-event document atomically."""
    atomic_write_text(path, json.dumps(trace, indent=1))
