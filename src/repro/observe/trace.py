"""Trace sessions: nested spans, counters, and the ambient session.

A :class:`TraceSession` collects three event streams for one or more
compilations/simulations:

* **spans** — nested wall-clock intervals (``with session.span(...)``),
* **counters** — monotonically accumulated named integers, kept in
  the session's :class:`~repro.observe.telemetry.MetricsRegistry`
  (``session.metrics.counters``),
* **remarks** — structured optimizer decisions
  (:class:`repro.observe.remarks.Remark`).

Sessions export the span/counter streams as Chrome trace-event JSON
(:meth:`TraceSession.to_chrome_trace`), loadable in Perfetto and
chrome://tracing.

Instrumented code never receives a session argument; it reads the
ambient one via :func:`current`.  Installing a session is scoped::

    session = TraceSession()
    with use(session):
        result = compile_source(...)

When no session is installed, :func:`current` returns a shared
*disabled* session whose ``span`` returns a reusable no-op context
manager and whose ``counter``/``remark`` are single ``if`` statements —
the disabled-mode overhead guarantee documented in DESIGN.md.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.observe.remarks import Remark
from repro.observe.telemetry import MetricsRegistry


@dataclass
class Span:
    """One timed interval.  Also its own context manager: entering
    starts the clock and registers the span with its session; exiting
    fixes ``duration``.  ``start``/``duration`` are seconds relative to
    the session origin.  ``id`` is session-unique and shared with the
    Chrome trace export and the JSONL event log, so events can be
    joined to the span they happened inside."""

    name: str
    category: str = "compile"
    start: float = 0.0
    duration: float = 0.0
    depth: int = 0
    id: int = 0
    parent: int = 0
    args: dict = field(default_factory=dict)
    session: "TraceSession | None" = field(default=None, repr=False)

    def set(self, **args) -> "Span":
        """Attach/overwrite argument key-values on the span."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        session = self.session
        self.depth = len(session._stack)
        self.id = session._next_span_id
        session._next_span_id += 1
        if session._stack:
            self.parent = session._stack[-1].id
        session._stack.append(self)
        session.spans.append(self)
        self.start = session._clock() - session._origin
        return self

    def __exit__(self, *exc) -> bool:
        session = self.session
        self.duration = session._clock() - session._origin - self.start
        session._stack.pop()
        return False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "start_s": self.start,
            "duration_s": self.duration,
            "depth": self.depth,
            "id": self.id,
            "parent": self.parent,
            "args": dict(self.args),
        }


class _NullSpan:
    """Shared no-op span used by disabled sessions (never allocated
    per call)."""

    __slots__ = ()
    duration = 0.0
    depth = 0
    id = 0
    parent = 0

    def set(self, **args) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class TraceSession:
    """Collects spans, counters, and remarks for one logical run."""

    def __init__(self, enabled: bool = True,
                 clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.remarks: list[Remark] = []
        #: The session's counters, gauges and latency histograms (its
        #: only counter store); the substrate behind ``--metrics-prom``
        #: and the service's cross-process aggregation.
        self.metrics = MetricsRegistry(enabled=enabled)
        #: Structured event stream (``event()``), exported as JSONL.
        self.events: list[dict] = []
        #: When True, PassManager prints the IR of a function to stderr
        #: after every pass that changed it (CLI ``--print-changed``).
        self.print_changed = False
        self._clock = clock
        self._origin = clock()
        self._stack: list[Span] = []
        self._next_span_id = 1

    def span(self, name: str, category: str = "compile", **args):
        """A context manager timing one interval; yields the Span so
        callers can read ``.duration`` afterwards or ``.set(...)``
        extra arguments."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(name=name, category=category, args=args, session=self)

    def counter(self, name: str, delta: int = 1) -> None:
        if self.enabled:
            self.metrics.counter(name, delta)

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency sample into the session's registry."""
        if self.enabled:
            self.metrics.observe(name, seconds)

    def event(self, kind: str, **fields) -> None:
        """Append one structured event, stamped with the session clock
        and the innermost open span's id (see
        :mod:`repro.observe.events`)."""
        if self.enabled:
            record = {"ts_s": round(self.elapsed(), 6), "kind": kind,
                      "span_id": self._stack[-1].id if self._stack
                      else 0}
            record.update(fields)
            self.events.append(record)

    def remark(self, remark: Remark) -> None:
        if self.enabled:
            self.remarks.append(remark)

    def elapsed(self) -> float:
        """Seconds since the session was created."""
        return self._clock() - self._origin

    def to_chrome_trace(self) -> dict:
        """Spans and counters in Chrome trace-event JSON form.

        Spans become complete ("X") events with microsecond ts/dur;
        counters become one "C" sample at the end of the trace.
        """
        events = []
        for span in self.spans:
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                # span_id joins trace intervals to --events-jsonl rows.
                "args": dict(span.args, span_id=span.id),
            })
        end_us = round(self.elapsed() * 1e6, 3)
        for name, value in sorted(self.metrics.counters.items()):
            events.append({
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": end_us,
                "pid": 1,
                "tid": 1,
                "args": {"value": value},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


#: Shared sink for all instrumentation when no session is installed.
_DISABLED = TraceSession(enabled=False)

#: Stack of installed sessions (innermost wins), carried in a
#: :class:`contextvars.ContextVar` so concurrent requests in a threaded
#: or async daemon each see only their own session.  A process-global
#: list here would cross-contaminate spans and counters between
#: requests: thread B's instrumentation would land in whatever session
#: thread A happened to have installed.  The stack is an immutable
#: tuple so ``use`` can install/restore with set/reset tokens and never
#: mutate state shared across contexts.
_ACTIVE: "ContextVar[tuple[TraceSession, ...]]" = ContextVar(
    "repro_trace_active", default=())


def current() -> TraceSession:
    """The ambient trace session (a disabled one when none installed).

    Context-local: each thread and each asyncio task resolves the
    sessions installed in *its* context only.
    """
    stack = _ACTIVE.get()
    return stack[-1] if stack else _DISABLED


class use:
    """Context manager installing ``session`` as the ambient one.

    Installation is context-local (see ``_ACTIVE``): a session
    installed in one thread or asyncio task is invisible to every
    other, so concurrent daemon requests never share counters.  Note
    that a ``threading.Thread`` starts in a *fresh* context — a worker
    thread that should report into a session must install it itself.
    """

    def __init__(self, session: TraceSession) -> None:
        self.session = session
        self._token = None

    def __enter__(self) -> TraceSession:
        self._token = _ACTIVE.set(_ACTIVE.get() + (self.session,))
        return self.session

    def __exit__(self, *exc) -> bool:
        _ACTIVE.reset(self._token)
        return False
