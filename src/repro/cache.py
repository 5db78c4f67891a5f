"""Content-addressed compilation cache.

Benchmark and service workloads compile the same kernel for the same
signature over and over (every pytest parametrization, every CLI
invocation in a sweep).  The pipeline is deterministic — the result is
a pure function of the MATLAB source, the argument signatures, the
entry point, the processor description and the option switches — so
``compile_source`` results can be memoized under a content hash of
exactly those inputs.

Two layers:

* an in-process LRU (:class:`CompilationCache`), always available;
* an optional on-disk pickle store (``cache_dir`` argument or the
  ``REPRO_CACHE_DIR`` environment variable) that survives process
  restarts and is shared between workers.

Cached :class:`~repro.compiler.CompilationResult` objects are shared
between callers; treat them as immutable (the compiler and both
simulator backends never mutate a finished module).

Concurrency protocol (the disk layer is shared by the parallel
compilation service's worker pool):

* **Writes are atomic.**  Every write serializes into a fresh unique
  temp file (``mkstemp`` in the destination directory, so the final
  ``os.replace`` never crosses a filesystem boundary) and publishes it
  with an atomic rename.  A concurrent reader therefore observes either
  no entry or a complete entry — never a partially serialized pickle.
* **Reads are lock-free.**  Readers just open the published path; the
  worst outcome of racing a writer is a miss.  A corrupt entry (e.g.
  version skew) is counted, unlinked, and treated as a miss.
* **Contention is counted, not blocked.**  When a writer finds the
  entry already published (another worker compiled the same key first),
  it still replaces it — the pipeline is deterministic, so the bytes
  are equivalent — and bumps ``disk_write_races`` so batch reports
  surface duplicated work instead of hiding it.

The in-memory LRU takes a plain ``threading.Lock`` around its mutations
so one :class:`CompilationCache` can back a thread-pooled caller.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.asip.model import ProcessorDescription
from repro.observe import trace as obs_trace
from repro.observe.remarks import ANALYSIS, Remark
from repro.observe.telemetry import counter_view
from repro.semantics.types import MType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compiler import CompilationResult, CompilerOptions

_OPTION_FIELDS = ("mode", "scalar_opt", "inline", "simd", "complex_isel",
                  "scalar_mac")

#: Cache-format version tag.  It salts every :func:`cache_key` and is
#: embedded in the on-disk pickle envelope, so a long-lived shared
#: ``REPRO_CACHE_DIR`` (service pools, the ``repro-serve`` daemon)
#: can never serve an entry written by an older code revision whose
#: pickle still *loads* but carries stale semantics.  Bump it whenever
#: the meaning of a cached :class:`CompilationResult` changes (IR
#: layout, emitter output, option semantics); skewed entries then read
#: as counted misses, never as wrong answers.
CACHE_SCHEMA = "repro-cache-v3"


#: ``stats()`` field -> counter name.  A :class:`CompilationCache`
#: keeps its process-wide tallies under these names and bumps the
#: ambient session's counter of the same name with every event, so the
#: per-run report sections (:mod:`repro.observe.metrics`) and batch
#: aggregates (:mod:`repro.service.report`) read the same counts back
#: through this one mapping.
CACHE_COUNTERS = {
    "hits": "cache.hit",
    "misses": "cache.miss",
    "disk_hits": "cache.disk_hit",
    "evictions": "cache.evict",
    "disk_reads": "cache.disk_read",
    "disk_writes": "cache.disk_write",
    "disk_write_races": "cache.disk_write_race",
    "disk_read_errors": "cache.disk_read_error",
    "disk_write_errors": "cache.disk_write_error",
    "disk_schema_skews": "cache.disk_schema_skew",
}


def _arg_token(mtype: MType) -> str:
    shape = mtype.shape
    return (f"{mtype.dtype.value}:{int(mtype.is_complex)}:"
            f"{shape.rows}x{shape.cols}:{mtype.value!r}")


def cache_key(source: str,
              args: Iterable[MType],
              entry: str | None,
              processor: ProcessorDescription,
              options: "CompilerOptions",
              filename: str = "<string>") -> str:
    """Content hash identifying one compilation exactly.

    Anything that can change the produced module must be in here: the
    source text, every argument signature (dtype, complexness, shape,
    specialization value), the entry point, the processor fingerprint
    (name + cost table + instruction list) and every option switch.
    ``filename`` participates because it is baked into diagnostics
    carried by the result.  :data:`CACHE_SCHEMA` salts the hash so a
    revision that changes cached semantics addresses a disjoint key
    space from older on-disk entries.
    """
    hasher = hashlib.sha256()
    hasher.update(CACHE_SCHEMA.encode("ascii"))
    hasher.update(b"\x00")
    hasher.update(source.encode("utf-8"))
    hasher.update(b"\x00")
    for mtype in args:
        hasher.update(_arg_token(mtype).encode("utf-8"))
        hasher.update(b"\x00")
    hasher.update(repr(entry).encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(processor.fingerprint().encode("ascii"))
    hasher.update(b"\x00")
    for name in _OPTION_FIELDS:
        hasher.update(f"{name}={getattr(options, name)}".encode("utf-8"))
        hasher.update(b"\x00")
    hasher.update(filename.encode("utf-8"))
    return hasher.hexdigest()


class CompilationCache:
    """LRU of compilation results, optionally backed by a disk store."""

    def __init__(self, maxsize: int = 256,
                 cache_dir: "str | Path | None" = None):
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, CompilationResult]" = OrderedDict()
        self._lock = threading.Lock()
        #: Counter name (a :data:`CACHE_COUNTERS` value) -> count.
        self._counts: dict[str, int] = {}
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        self.cache_dir = Path(cache_dir) if cache_dir else None

    def _count(self, name: str, delta: int = 1) -> None:
        """Count one event here and in the ambient session."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + delta
        obs_trace.current().counter(name, delta)

    # -- in-memory layer ----------------------------------------------

    def get(self, key: str) -> "CompilationResult | None":
        session = obs_trace.current()
        t0 = time.perf_counter()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            self._count("cache.hit")
            session.observe("cache.mem_hit_s", time.perf_counter() - t0)
            return entry
        t1 = time.perf_counter()
        entry = self._disk_get(key)
        if entry is not None:
            self._count("cache.hit")
            self._count("cache.disk_hit")
            session.observe("cache.disk_hit_s", time.perf_counter() - t1)
            self._remember(key, entry)
            return entry
        self._count("cache.miss")
        session.observe("cache.miss_s", time.perf_counter() - t0)
        return None

    def put(self, key: str, result: "CompilationResult") -> None:
        self._remember(key, result)
        self._disk_put(key, result)

    def _remember(self, key: str, result: "CompilationResult") -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self._count("cache.evict", evicted)

    # -- disk layer ----------------------------------------------------

    def _disk_path(self, key: str) -> "Path | None":
        if self.cache_dir is None:
            return None
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def _disk_get(self, key: str) -> "CompilationResult | None":
        path = self._disk_path(key)
        if path is None or not path.is_file():
            return None
        try:
            with path.open("rb") as stream:
                envelope = pickle.load(stream)
            # Entries are published inside a schema-tagged envelope.
            # Anything else — a raw pre-envelope pickle, or an envelope
            # from a revision with a different CACHE_SCHEMA — unpickles
            # cleanly but must not be served: it is counted as a skew,
            # unlinked, and treated as a miss.
            if not (isinstance(envelope, dict)
                    and envelope.get("schema") == CACHE_SCHEMA):
                self._count("cache.disk_schema_skew")
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
            self._count("cache.disk_read")
            return envelope["result"]
        except Exception as exc:
            # A corrupt or version-skewed entry behaves as a miss, but
            # never silently: corruption that goes uncounted looks like
            # a cold cache and hides real deployment problems.
            self._disk_error("read", path, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_put(self, key: str, result: "CompilationResult") -> None:
        path = self._disk_path(key)
        if path is None:
            return
        t0 = time.perf_counter()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # A fresh unique temp file per write: a shared pid-derived
            # name would let two writers of the same key interleave
            # their pickle streams and publish garbage.  mkstemp in the
            # destination directory keeps os.replace atomic (same
            # filesystem) and readers never see a partial entry.
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{key[:16]}.tmp.", dir=path.parent)
            try:
                with os.fdopen(fd, "wb") as stream:
                    pickle.dump({"schema": CACHE_SCHEMA, "result": result},
                                stream, pickle.HIGHEST_PROTOCOL)
                raced = path.exists()
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self._count("cache.disk_write")
            obs_trace.current().observe("cache.disk_write_s",
                                        time.perf_counter() - t0)
            if raced:
                # Another worker published this key first; the
                # pipeline is deterministic so replacing is harmless,
                # but the duplicated compile is contention worth
                # surfacing in batch reports.
                self._count("cache.disk_write_race")
        except Exception as exc:
            # Disk persistence is best-effort (the in-memory entry
            # already satisfies this process) but the failure is
            # counted and remarked so it shows up in metrics reports.
            self._disk_error("write", path, exc)

    def _disk_error(self, kind: str, path: Path, exc: Exception) -> None:
        """Record one disk-layer failure in the cache's counts (and the
        ambient session's) plus an analysis remark."""
        self._count(f"cache.disk_{kind}_error")
        obs_trace.current().remark(Remark(
            kind=ANALYSIS, pass_name="cache",
            message=f"disk cache {kind} failed for {path.name}: "
                    f"{type(exc).__name__}: {exc}"))

    # -- maintenance ---------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._counts.clear()

    def __len__(self) -> int:
        # Same lock as every other accessor: an unlocked read could
        # observe the OrderedDict mid-resize under a concurrent writer.
        with self._lock:
            return len(self._entries)

    def peek(self, key: str) -> "CompilationResult | None":
        """Memory-layer-only lookup: no disk I/O, no hit/miss counting,
        no LRU reordering.  The serve daemon uses it to re-check for a
        concurrently-published entry while holding its own admission
        lock, where a full :meth:`get` (disk reads, stat skew) would be
        both slow and misleading."""
        with self._lock:
            return self._entries.get(key)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return dict(counter_view(self._counts, CACHE_COUNTERS),
                        size=len(self._entries))


_default_cache = CompilationCache()

#: Serializes process-wide cache replacement.  The swap itself must be
#: atomic from the point of view of concurrent ``default_cache()``
#: callers: the new cache is fully constructed *before* the global is
#: rebound (one reference assignment, atomic in CPython), so an
#: in-flight reader observes either the complete old cache or the
#: complete new one — never a partially initialized object.  The lock
#: additionally keeps two concurrent ``configure()`` calls (a daemon
#: reconfigure racing a test fixture) from interleaving.
_configure_lock = threading.Lock()


def default_cache() -> CompilationCache:
    """The process-wide cache used by ``compile_source``."""
    return _default_cache


def configure(maxsize: "int | None" = None,
              cache_dir: "str | Path | None" = None) -> CompilationCache:
    """Replace the process-wide cache (tests, services with custom
    dirs).  Safe against in-flight ``default_cache()`` callers: they
    keep using the cache they already resolved; new callers see the
    replacement."""
    global _default_cache
    replacement = CompilationCache(
        maxsize=maxsize if maxsize is not None else 256,
        cache_dir=cache_dir)
    with _configure_lock:
        _default_cache = replacement
    return replacement


def clear() -> None:
    default_cache().clear()


def stats() -> dict[str, int]:
    return default_cache().stats()
