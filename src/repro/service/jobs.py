"""Job and result records exchanged between the service and workers.

Everything that crosses the process boundary is built from plain data
(strings, numbers, dicts, lists) so pickling is cheap and version-skew
tolerant: a :class:`CompileJob` describes one compilation by *value*
(source text, textual argument specs, processor spec, option switches)
and a :class:`JobResult` carries the outcome plus the worker's
observability streams in already-serialized form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cache import CACHE_COUNTERS
from repro.observe.telemetry import counter_view

#: Terminal job states.
#:
#: * ``ok``       — compiled; ``c_source`` holds the generated C.
#: * ``error``    — the compile raised deterministically (bad source,
#:                  unknown dtype, ...).  Never retried.
#: * ``timeout``  — the per-job deadline fired (in-worker alarm) or the
#:                  parent watchdog killed a stalled worker.
#: * ``crash``    — the worker process died (segfault, ``os._exit``,
#:                  OOM kill) more times than the retry budget allows.
JOB_STATUSES = ("ok", "error", "timeout", "crash")

_job_ids = itertools.count(1)


def next_job_id(stem: str = "job") -> str:
    """Process-unique job id (``stem-N``)."""
    return f"{stem}-{next(_job_ids)}"


@dataclass
class CompileJob:
    """One compilation request, described entirely by value."""

    job_id: str
    source: str
    #: Textual argument specs (``"double:1x256"``, ``"cdouble:4x1"``),
    #: the same syntax the CLIs accept.
    args: list[str]
    entry: "str | None" = None
    #: Processor spec: a shipped description name, or
    #: ``"simd_width:N"`` for the parametric E6 family.
    processor: str = "vliw_simd_dsp"
    #: :class:`repro.compiler.CompilerOptions` field overrides
    #: (``{"mode": "baseline", "simd": False, ...}``); empty = full
    #: optimizer.
    options: dict = field(default_factory=dict)
    filename: str = "<string>"
    #: Per-job wall-clock deadline in seconds (None = no limit).
    timeout: "float | None" = None
    #: ``time.time()`` in the parent when the job was handed to the
    #: pool (set by the service at submission); the worker derives the
    #: queue-wait latency histogram from it.
    submitted_at: "float | None" = None
    #: Also build the native ``.so`` artifact into the shared native
    #: cache after compiling (benchmark/service pre-warm).  Best-effort:
    #: a missing host C compiler or a build failure is recorded in the
    #: result's metrics counters, never fails the job.
    warm_native: bool = False
    #: When set, the worker also runs the compiled entry on
    #: deterministic random inputs drawn from this seed (see
    #: :mod:`repro.sim.inputs`) and reports the cycle count in
    #: ``JobResult.cycles``.  The design-space-exploration engine uses
    #: this to fan candidate evaluations out: cycle counts are a pure
    #: function of ``(program, processor, seed)``, so results are
    #: identical at any worker count.
    simulate_seed: "int | None" = None
    #: Fault-injection hook for the concurrency test tier; honored by
    #: the worker only when the service was built with
    #: ``allow_test_hooks=True``.  One of ``"crash"`` (``os._exit``),
    #: ``"hang"`` (sleep far past any deadline), ``"exception"``.
    test_hook: "str | None" = None


@dataclass
class JobResult:
    """Structured outcome of one job (never an exception)."""

    job_id: str
    status: str
    #: Generated C translation unit (``ok`` only).
    c_source: "str | None" = None
    entry_name: str = ""
    #: Human-readable failure detail (non-``ok``).
    detail: str = ""
    #: Exception class name for ``error`` results.
    error_type: str = ""
    #: Times the job was handed to a worker (1 = first try succeeded).
    attempts: int = 1
    worker_pid: int = 0
    #: Wall-clock seconds the final attempt spent in the worker.
    wall_s: float = 0.0
    #: Seconds the job sat in the pool queue before its final attempt
    #: started (0.0 when the parent recorded no submission time).
    queue_wait_s: float = 0.0
    #: ``time.time()`` in the worker when the attempt started; the
    #: parent uses it to re-base worker spans onto its own timeline.
    wall_origin: float = 0.0
    #: Total simulated cycle count (only when the job carried a
    #: ``simulate_seed``); deterministic for a given job description.
    cycles: "int | None" = None
    #: Custom-instruction execution counts from the simulated run
    #: (``simulate_seed`` jobs only).
    instruction_counts: dict = field(default_factory=dict)
    #: Wall-clock seconds of the simulation run (0.0 when the job did
    #: not simulate).
    sim_wall_s: float = 0.0
    stage_times: dict = field(default_factory=dict)
    pass_stats: dict = field(default_factory=dict)
    #: ``Remark.to_dict()`` records from the worker's trace session.
    remarks: list = field(default_factory=list)
    #: ``Span.to_dict()`` records from the worker's trace session.
    spans: list = field(default_factory=list)
    #: ``MetricsRegistry.snapshot()`` of the worker session while this
    #: job ran: its counters (the job's only counter store, cache
    #: events included), queue-wait/execution histograms, per-layer
    #: cache latencies...; :class:`~repro.service.report.BatchResult`
    #: merges them associatively into one batch-wide registry.  Empty
    #: for results the parent synthesized after a crash or stall.
    metrics: dict = field(default_factory=dict)
    #: Structured events from the worker session (JSONL rows after the
    #: parent re-bases and tags them).
    events: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        counters = dict(self.metrics.get("counters", {}))
        return {
            "job_id": self.job_id,
            "status": self.status,
            "entry": self.entry_name,
            "detail": self.detail,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "worker_pid": self.worker_pid,
            "wall_s": round(self.wall_s, 6),
            "queue_wait_s": round(self.queue_wait_s, 6),
            "cycles": self.cycles,
            "sim_wall_s": round(self.sim_wall_s, 6),
            "stage_times_s": dict(self.stage_times),
            "pass_stats": dict(self.pass_stats),
            "remarks": list(self.remarks),
            "counters": counters,
            "cache": counter_view(counters, CACHE_COUNTERS)
            if self.metrics else {},
        }


def resolve_processor(spec: str):
    """Processor spec -> :class:`ProcessorDescription`.

    Accepts a shipped description name (``vliw_simd_dsp``), the
    parametric ``simd_width:N`` family used by the width-sweep
    benchmarks, or a ``dse:{...}`` design-point spec (JSON-encoded
    :class:`~repro.dse.space.DesignPoint` parameters) — the by-value
    form the design-space-exploration engine ships candidates to
    workers in.

    Raises :class:`~repro.errors.IsaError` (malformed parameter
    values, e.g. SIMD width 0 or a negative cycle cost), ``ValueError``
    (unparseable spec syntax) or ``KeyError`` (unknown shipped name).
    """
    from repro.asip.isa_library import load_processor, simd_dsp_with_width
    from repro.errors import IsaError

    if spec.startswith("simd_width:"):
        text = spec.split(":", 1)[1]
        try:
            width = int(text)
        except ValueError:
            raise IsaError(f"processor spec {spec!r}: SIMD width must "
                           f"be an integer, got {text!r}") from None
        return simd_dsp_with_width(width)
    if spec.startswith("dse:"):
        from repro.dse.space import DesignPoint
        return DesignPoint.from_spec(spec).processor()
    return load_processor(spec)
