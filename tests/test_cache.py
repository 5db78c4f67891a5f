"""Content-addressed compilation cache + memoization tests.

Covers the cache-key construction (hits on identical inputs,
invalidation on every input that can change the produced module), the
in-memory LRU, the on-disk pickle layer, and the satellite
memoizations: ``load_processor``, ``generate_header`` and
``CompilationResult.instruction_mix``.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro import cache
from repro.asip.header_gen import generate_header
from repro.asip.isa_library import load_processor
from repro.compiler import CompilerOptions, arg, compile_source

SRC = "function y = f(x, h)\ny = x(1) * h(1) + x(2) * h(2);\nend"
ARGS = [arg((1, 4)), arg((1, 4))]


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test gets a private process-wide cache with no disk layer."""
    cache.configure(cache_dir=None)
    yield
    cache.configure(cache_dir=None)


def _key(source=SRC, args=ARGS, entry=None, processor="vliw_simd_dsp",
         options=None, filename="<string>"):
    return cache.cache_key(source, args, entry,
                           load_processor(processor),
                           options or CompilerOptions(), filename)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------


def test_key_stable_for_identical_inputs():
    assert _key() == _key()


def test_key_changes_with_source():
    assert _key() != _key(source=SRC.replace("+", "-"))


def test_key_changes_with_arg_signature():
    assert _key() != _key(args=[arg((1, 8)), arg((1, 4))])
    assert _key() != _key(args=[arg((1, 4), dtype="single"), arg((1, 4))])
    assert _key() != _key(args=[arg((1, 4), complex=True), arg((1, 4))])
    assert _key() != _key(args=[arg((1, 4), value=2.0), arg((1, 4))])


def test_key_changes_with_entry_and_filename():
    assert _key() != _key(entry="f")
    assert _key() != _key(filename="f.m")


def test_key_changes_with_options():
    assert _key() != _key(options=CompilerOptions.baseline())
    assert _key() != _key(options=CompilerOptions(simd=False))


def test_key_changes_with_processor():
    assert _key() != _key(processor="generic_scalar_dsp")


def test_key_changes_with_processor_cost_table():
    proc = load_processor("vliw_simd_dsp")
    tweaked = dataclasses.replace(proc)
    tweaked.costs = dataclasses.replace(proc.costs, mul=proc.costs.mul + 1)
    options = CompilerOptions()
    assert cache.cache_key(SRC, ARGS, None, proc, options) != \
        cache.cache_key(SRC, ARGS, None, tweaked, options)


# ----------------------------------------------------------------------
# compile_source integration
# ----------------------------------------------------------------------


def test_compile_source_hits_cache():
    first = compile_source(SRC, args=ARGS)
    before = cache.stats()
    second = compile_source(SRC, args=ARGS)
    after = cache.stats()
    assert second is first
    assert after["hits"] == before["hits"] + 1


def test_compile_source_use_cache_false_bypasses():
    first = compile_source(SRC, args=ARGS)
    second = compile_source(SRC, args=ARGS, use_cache=False)
    assert second is not first
    assert len(cache.default_cache()) == 1


def test_cached_result_still_simulates():
    first = compile_source(SRC, args=ARGS)
    second = compile_source(SRC, args=ARGS)
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    h = np.array([[0.5, 0.25, 0.0, 0.0]])
    run = second.simulate([x, h])
    assert run.outputs[0] == pytest.approx(1.0)
    fresh = compile_source(SRC, args=ARGS, use_cache=False)
    assert fresh.simulate([x, h]).report == run.report


def test_different_options_compile_separately():
    optimized = compile_source(SRC, args=ARGS)
    baseline = compile_source(SRC, args=ARGS,
                              options=CompilerOptions.baseline())
    assert baseline is not optimized
    assert len(cache.default_cache()) == 2


# ----------------------------------------------------------------------
# LRU + disk layer
# ----------------------------------------------------------------------


def test_lru_eviction():
    store = cache.CompilationCache(maxsize=2)
    store.put("a", "ra")
    store.put("b", "rb")
    store.get("a")                     # refresh 'a'
    store.put("c", "rc")               # evicts 'b'
    assert store.get("a") == "ra"
    assert store.get("b") is None
    assert store.get("c") == "rc"
    assert len(store) == 2


def test_disk_layer_round_trip(tmp_path):
    cache.configure(cache_dir=tmp_path)
    result = compile_source(SRC, args=ARGS)
    key = _key()
    assert (tmp_path / key[:2] / f"{key}.pkl").is_file()

    # A fresh process-wide cache (cold memory) must hit the disk layer
    # and the revived result must still run like the original.
    store = cache.configure(cache_dir=tmp_path)
    revived = compile_source(SRC, args=ARGS)
    assert revived is not result
    assert store.stats()["disk_hits"] == 1
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    h = np.array([[0.5, 0.25, 0.0, 0.0]])
    comp = revived.simulate([x, h])
    original = result.simulate([x, h])
    assert comp.outputs[0] == original.outputs[0]
    assert comp.report == original.report


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    store = cache.configure(cache_dir=tmp_path)
    key = _key()
    path = tmp_path / key[:2] / f"{key}.pkl"
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle")
    assert store.get(key) is None
    assert not path.exists()           # corrupt entry dropped
    compile_source(SRC, args=ARGS)     # and recompilation repopulates it
    assert path.is_file()


def test_schema_skewed_envelope_is_counted_miss(tmp_path):
    # An entry written under a different CACHE_SCHEMA unpickles cleanly
    # but must never be served: it reads as a *counted* miss and the
    # stale file is dropped so it cannot keep skewing.
    store = cache.CompilationCache(cache_dir=tmp_path)
    key = "a" * 64
    path = tmp_path / key[:2] / f"{key}.pkl"
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps(
        {"schema": "repro-cache-v1", "result": "stale"}))
    assert store.get(key) is None
    assert not path.exists()
    assert store.stats()["disk_schema_skews"] == 1
    assert store.stats()["disk_read_errors"] == 0


def test_pre_envelope_raw_pickle_is_schema_skew(tmp_path):
    # Entries from before the envelope existed are bare pickled results;
    # they load fine, so only the schema check can reject them.
    store = cache.CompilationCache(cache_dir=tmp_path)
    key = "b" * 64
    path = tmp_path / key[:2] / f"{key}.pkl"
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"tag": 1}))  # dict, but no schema
    assert store.get(key) is None
    assert not path.exists()
    assert store.stats()["disk_schema_skews"] == 1


def test_cache_key_salted_by_schema(monkeypatch):
    # Bumping CACHE_SCHEMA must move every key, so a new revision
    # addresses a disjoint key space from older on-disk entries.
    before = _key()
    monkeypatch.setattr(cache, "CACHE_SCHEMA", "repro-cache-v999")
    assert _key() != before


def test_peek_is_memory_only_and_stat_free(tmp_path):
    store = cache.CompilationCache(cache_dir=tmp_path)
    key = "c" * 64
    store._disk_put(key, {"tag": 7})
    baseline = store.stats()
    # peek never touches the disk layer and never counts hit/miss.
    assert store.peek(key) is None
    assert store.stats() == baseline
    store._remember(key, {"tag": 7})
    assert store.peek(key) == {"tag": 7}
    after = store.stats()
    assert after["hits"] == baseline["hits"]
    assert after["misses"] == baseline["misses"]


def test_configure_swap_is_atomic_under_concurrent_readers(tmp_path):
    # Hammer configure() from one thread while others resolve and use
    # the process-wide cache: readers must only ever observe a fully
    # constructed cache (a partially initialized one would raise).
    import threading

    stop = threading.Event()
    errors = []

    def reconfigure():
        try:
            while not stop.is_set():
                cache.configure(maxsize=8, cache_dir=tmp_path)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def reader(tag):
        try:
            for i in range(200):
                store = cache.default_cache()
                key = ("%02d" % (i % 10)) + "b" * 62
                if store.get(key) is None:
                    store._remember(key, {"tag": tag})
                len(store)
                store.stats()
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    flipper = threading.Thread(target=reconfigure)
    readers = [threading.Thread(target=reader, args=(t,))
               for t in range(4)]
    flipper.start()
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join()
    stop.set()
    flipper.join()
    assert errors == []


def test_pickled_result_drops_runtime_state():
    result = compile_source(SRC, args=ARGS)
    result.compiled_program()
    result.instruction_mix([np.ones((1, 4)), np.ones((1, 4))])
    revived = pickle.loads(pickle.dumps(result))
    assert not hasattr(revived, "_compiled_program")
    assert not hasattr(revived, "_last_sim_result")


def test_c_source_memo_is_not_pickled(monkeypatch):
    from repro.backend import emitter

    result = compile_source(SRC, args=ARGS, use_cache=False)
    emits = []
    real_emit = emitter.emit_c

    def counting_emit(*args, **kwargs):
        emits.append(args)
        return real_emit(*args, **kwargs)

    monkeypatch.setattr(emitter, "emit_c", counting_emit)
    text = result.c_source()
    assert result.c_source() is text
    assert len(emits) == 1
    revived = pickle.loads(pickle.dumps(result))
    assert "_c_text" not in vars(revived)
    assert revived.c_source() == text
    assert len(emits) == 2


# ----------------------------------------------------------------------
# Satellite memoizations
# ----------------------------------------------------------------------


def test_load_processor_is_memoized():
    assert load_processor("vliw_simd_dsp") is load_processor("vliw_simd_dsp")


def test_processor_fingerprint_semantics():
    proc = load_processor("vliw_simd_dsp")
    assert proc.fingerprint() == proc.fingerprint()
    assert proc == dataclasses.replace(proc)
    assert hash(proc) == hash(dataclasses.replace(proc))
    other = load_processor("generic_scalar_dsp")
    assert proc.fingerprint() != other.fingerprint()
    assert proc != other


def test_generate_header_is_memoized():
    proc = load_processor("vliw_simd_dsp")
    assert generate_header(proc) is generate_header(proc)


# ----------------------------------------------------------------------
# Cache-hit provenance
# ----------------------------------------------------------------------


def test_cache_hits_counter_marks_provenance():
    first = compile_source(SRC, args=ARGS)
    assert first.cache_hits == 0
    second = compile_source(SRC, args=ARGS)
    third = compile_source(SRC, args=ARGS)
    assert second is first and third is first
    assert first.cache_hits == 2
    # The original stage timings survive for --profile provenance.
    assert "total" in first.stage_times


def test_disk_revived_result_defaults_new_fields(tmp_path):
    cache.configure(cache_dir=tmp_path)
    compile_source(SRC, args=ARGS)
    cache.configure(cache_dir=tmp_path)   # cold memory, warm disk
    revived = compile_source(SRC, args=ARGS)
    assert revived.cache_hits == 1        # counted on the disk hit
    assert isinstance(revived.remarks, list)


# ----------------------------------------------------------------------
# Multi-process safety of the disk layer
#
# Regression for the partial-write hazard: before the atomic
# mkstemp + os.replace protocol, two processes writing the same key
# (or a reader overlapping a writer) could observe a half-written
# pickle.  These tests interleave real processes over one cache
# directory and demand that every read is either a miss or a complete,
# valid entry — never garbage.
# ----------------------------------------------------------------------


def _payload(tag: int) -> dict:
    # Big enough that a non-atomic write would be observably partial.
    return {"tag": tag, "blob": ("%06d" % tag) * 40000}


def _writer_proc(cache_dir, key, tag, start, rounds):
    from repro.cache import CompilationCache

    private = CompilationCache(cache_dir=cache_dir)
    start.wait()
    for _ in range(rounds):
        private._disk_put(key, _payload(tag))


def test_interleaved_reader_writer_processes_never_see_partial(tmp_path):
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    key = "f" * 64
    start = ctx.Event()
    writers = [ctx.Process(target=_writer_proc,
                           args=(str(tmp_path), key, tag, start, 25))
               for tag in range(3)]
    for proc in writers:
        proc.start()

    reader = cache.CompilationCache(cache_dir=tmp_path)
    start.set()
    observed = 0
    while any(proc.is_alive() for proc in writers):
        entry = reader._disk_get(key)
        if entry is not None:
            observed += 1
            # A complete entry from exactly one writer; a torn write
            # would either fail to unpickle (counted as read error)
            # or mix tags and blob.
            assert entry["blob"] == ("%06d" % entry["tag"]) * 40000
    for proc in writers:
        proc.join()
        assert proc.exitcode == 0
    assert observed > 0, "reader never overlapped a published entry"
    assert reader.stats()["disk_read_errors"] == 0


def test_concurrent_writers_leave_no_temp_files(tmp_path):
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    key = "e" * 64
    start = ctx.Event()
    writers = [ctx.Process(target=_writer_proc,
                           args=(str(tmp_path), key, tag, start, 10))
               for tag in range(3)]
    for proc in writers:
        proc.start()
    start.set()
    for proc in writers:
        proc.join()
    leftovers = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
    assert leftovers == []
    # The published entry is one writer's complete payload.
    final = cache.CompilationCache(cache_dir=tmp_path)._disk_get(key)
    assert final["blob"] == ("%06d" % final["tag"]) * 40000


def test_disk_write_race_is_counted(tmp_path):
    private = cache.CompilationCache(cache_dir=tmp_path)
    key = "d" * 64
    private._disk_put(key, _payload(1))
    assert private.stats()["disk_write_races"] == 0
    private._disk_put(key, _payload(2))   # key already published
    stats = private.stats()
    assert stats["disk_writes"] == 2
    assert stats["disk_write_races"] == 1


def test_stats_exposes_contention_counters():
    expected = {"hits", "misses", "disk_hits", "evictions",
                "disk_reads", "disk_writes", "disk_write_races",
                "disk_read_errors", "disk_write_errors",
                "disk_schema_skews", "size"}
    assert expected <= set(cache.stats())


def test_thread_safety_smoke(tmp_path):
    import threading

    private = cache.CompilationCache(maxsize=8, cache_dir=tmp_path)
    errors = []

    def worker(tag: int) -> None:
        try:
            for i in range(30):
                key = ("%02d" % (i % 12)) + "a" * 62
                if private.get(key) is None:
                    private.put(key, _payload(tag))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    stats = private.stats()
    assert stats["hits"] + stats["misses"] == 6 * 30
    assert stats["size"] <= 8
    assert stats["disk_read_errors"] == 0
