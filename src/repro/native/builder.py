"""Shared-object builds behind a content-addressed artifact cache.

Mirrors the compilation cache's two-layer shape (:mod:`repro.cache`)
for native artifacts:

* an in-process table of loaded libraries (a ``.so`` stays mapped for
  the life of the process — ``dlclose`` on a live ctypes handle is
  never forced, so "eviction" from the memory layer only drops this
  cache's reference);
* an on-disk store of built ``.so`` files, shared between processes.

Disk layout: ``<dir>/<key[:2]>/<key>.so`` where ``key`` is the sha256
of exactly the build inputs — C source text, compiler name, compile
flags, link flags, and an ABI version tag.  Writes publish via
``mkstemp`` + atomic ``os.replace`` (same protocol as the compilation
cache), so readers never observe a partial file.  The in-flight file
is named ``.<key prefix>.<random>.tmp``, outside the ``*.so`` glob of
the eviction sweep, so one builder's sweep never unlinks another's
unpublished output; concurrent builders of the same key both publish
and the second replace wins.  Eviction is size-bounded: when
the store exceeds ``disk_limit`` entries after a write, the
oldest-mtime entries beyond the limit are unlinked (already-loaded
libraries keep working; on POSIX the mapping survives the unlink).

The cache directory resolves from ``REPRO_NATIVE_CACHE_DIR``, then
``REPRO_CACHE_DIR``/native (so service/benchmark runs that share a
compilation cache share native artifacts too), else a process-lifetime
temporary directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

from repro.backend.harness import LINK_FLAGS, STRICT_FLAGS
from repro.errors import BackendError
from repro.observe import trace as obs_trace
from repro.observe.telemetry import counter_view

#: Compile flags for the shared object: the same strict-ANSI contract
#: the exec harness enforces, but optimized for execution speed and
#: position-independent.  ``LINK_FLAGS`` (``-lm``) are passed after the
#: source file — toolchains that process libraries positionally resolve
#: symbols left to right.
SO_COMPILE_FLAGS = [*STRICT_FLAGS, "-O2", "-fPIC", "-shared"]

#: Bumped whenever the wrapper ABI or marshalling layout changes, so
#: stale on-disk artifacts from older versions can never be dlopened
#: against a newer caller.
_ABI_TAG = "repro-native-abi-v1"

#: ``stats()`` field -> counter name, the native twin of
#: :data:`repro.cache.CACHE_COUNTERS`.  ``cache_hits`` counts every
#: request served without a build; ``disk_hits`` is the subset served
#: from a published ``.so`` rather than the loaded-library table.
NATIVE_COUNTERS = {
    "builds": "native.build",
    "cache_hits": "native.cache_hit",
    "disk_hits": "native.disk_hit",
    "build_errors": "native.build_error",
    "evictions": "native.evict",
}


def native_cache_key(source: str, cc: str,
                     compile_flags: "list[str] | None" = None,
                     link_flags: "list[str] | None" = None) -> str:
    """Content hash identifying one shared-object build exactly."""
    hasher = hashlib.sha256()
    for part in (_ABI_TAG, source, cc,
                 "\x1f".join(SO_COMPILE_FLAGS if compile_flags is None
                             else compile_flags),
                 "\x1f".join(LINK_FLAGS if link_flags is None
                             else link_flags)):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


class NativeCache:
    """Loaded-library table over an on-disk ``.so`` store."""

    def __init__(self, cache_dir: "str | Path | None" = None,
                 disk_limit: int = 512):
        self._lock = threading.Lock()
        self._loaded: dict[str, ctypes.CDLL] = {}
        self._explicit_dir = Path(cache_dir) if cache_dir else None
        self._tmp_dir: "tempfile.TemporaryDirectory | None" = None
        self.disk_limit = disk_limit
        #: Counter name (a :data:`NATIVE_COUNTERS` value) -> count.
        self._counts: dict[str, int] = {}

    # -- directory resolution -----------------------------------------

    def cache_dir(self) -> Path:
        if self._explicit_dir is not None:
            return self._explicit_dir
        env = os.environ.get("REPRO_NATIVE_CACHE_DIR")
        if env:
            return Path(env)
        shared = os.environ.get("REPRO_CACHE_DIR")
        if shared:
            return Path(shared) / "native"
        if self._tmp_dir is None:
            self._tmp_dir = tempfile.TemporaryDirectory(
                prefix="repro-native-")
        return Path(self._tmp_dir.name)

    def _so_path(self, key: str) -> Path:
        return self.cache_dir() / key[:2] / f"{key}.so"

    def _count(self, name: str) -> None:
        """Count one event here and in the ambient session."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + 1
        obs_trace.current().counter(name)

    def _disk_hit(self) -> None:
        self._count("native.cache_hit")
        self._count("native.disk_hit")

    # -- public --------------------------------------------------------

    def load(self, source: str, cc: str = "gcc") -> ctypes.CDLL:
        """The loaded library for ``source``, building it on first use.

        A warm call performs zero compiler invocations: either the
        library is already loaded in-process, or the published ``.so``
        is dlopened straight from disk.
        """
        key = native_cache_key(source, cc)
        session = obs_trace.current()
        with self._lock:
            lib = self._loaded.get(key)
        if lib is not None:
            self._count("native.cache_hit")
            return lib

        path = self._so_path(key)
        if not path.is_file():
            self._build(source, cc, path)
        else:
            self._disk_hit()
        with session.span("dlopen", "native", so=path.name) as span:
            try:
                lib = ctypes.CDLL(str(path))
            except OSError as exc:
                # A corrupt/truncated artifact behaves as a miss: drop
                # it and rebuild once before giving up.
                try:
                    path.unlink()
                except OSError:
                    pass
                self._build(source, cc, path)
                try:
                    lib = ctypes.CDLL(str(path))
                except OSError:
                    raise BackendError(
                        f"cannot dlopen native artifact {path}: "
                        f"{exc}") from exc
        session.observe("native.dlopen_s", span.duration)
        with self._lock:
            self._loaded[key] = lib
        return lib

    def warm(self, source: str, cc: str = "gcc") -> bool:
        """Ensure the ``.so`` for ``source`` exists on disk without
        loading it (service pre-warm path).  Returns True when a build
        actually ran."""
        key = native_cache_key(source, cc)
        path = self._so_path(key)
        if path.is_file():
            self._disk_hit()
            return False
        self._build(source, cc, path)
        return True

    # -- build ---------------------------------------------------------

    def _build(self, source: str, cc: str, path: Path) -> None:
        session = obs_trace.current()
        with session.span("native-build", "native", cc=cc) as span:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(
                    prefix="repro-native-build-") as tmp:
                c_path = Path(tmp) / "generated.c"
                c_path.write_text(source)
                # The in-flight output must not match the ``*/*.so``
                # glob of another cache's eviction sweep.
                fd, tmp_so = tempfile.mkstemp(
                    prefix=f".{path.stem[:16]}.", suffix=".tmp",
                    dir=path.parent)
                os.close(fd)
                try:
                    proc = subprocess.run(
                        [cc, *SO_COMPILE_FLAGS, str(c_path),
                         "-o", tmp_so, *LINK_FLAGS],
                        capture_output=True, text=True)
                    if proc.returncode != 0:
                        self._count("native.build_error")
                        raise BackendError(
                            "native shared-object build failed:\n"
                            f"{proc.stderr}")
                    os.replace(tmp_so, path)
                except BaseException:
                    try:
                        os.unlink(tmp_so)
                    except OSError:
                        pass
                    raise
            self._count("native.build")
            span.set(so=path.name)
        session.observe("native.build_s", span.duration)
        session.event("native.build", so=path.name, cc=cc,
                      wall_s=round(span.duration, 6), span_id=span.id)
        self._evict()

    def _evict(self) -> None:
        """Unlink oldest artifacts beyond ``disk_limit`` (best-effort)."""
        try:
            entries = sorted(self.cache_dir().glob("*/*.so"),
                             key=lambda p: p.stat().st_mtime)
        except OSError:
            return
        for stale in entries[:max(0, len(entries) - self.disk_limit)]:
            try:
                stale.unlink()
                self._count("native.evict")
            except OSError:
                pass

    # -- maintenance ---------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return dict(counter_view(self._counts, NATIVE_COUNTERS),
                        loaded=len(self._loaded))


_default_cache = NativeCache()


def default_cache() -> NativeCache:
    """The process-wide native artifact cache."""
    return _default_cache


def configure(cache_dir: "str | Path | None" = None,
              disk_limit: int = 512) -> NativeCache:
    """Replace the process-wide native cache (tests, service workers)."""
    global _default_cache
    _default_cache = NativeCache(cache_dir=cache_dir,
                                 disk_limit=disk_limit)
    return _default_cache


def stats() -> dict[str, int]:
    return _default_cache.stats()
