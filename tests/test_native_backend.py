"""Native execution tier: differential correctness, caching, flags.

Five groups of guards:

* every E1 benchmark kernel produces golden-identical outputs through
  ``simulate(backend="native")`` (versus the interpreter and the
  compiled-closure simulator);
* the generated call stub: a matrix of entry signatures returns the
  compiled simulator's outputs exactly, its error messages are pinned,
  its source is straight-line, and a raw call of the wrapper symbol
  fills the same buffers;
* the fuzz corpus and a 100-seed sweep run clean through the oracle's
  native gcc harness;
* caching: a second native simulation of the same program performs
  **zero** compiler invocations (in-memory and on-disk layers), and
  ``DifferentialOracle.run_points`` builds once per program however
  many input points it judges;
* the compile/link flag split keeps ``-lm`` after the source files.
"""

from __future__ import annotations

import ast
import ctypes
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_cycles_pinned, requires_gcc
from repro.backend import harness
from repro.compiler import arg, compile_source
from repro.errors import BackendError, SimulationError
from repro.fuzz import DifferentialOracle, ProgramGenerator
from repro.fuzz.reducer import load_reproducer
from repro.native import builder as native_builder
from repro.native import (WRAPPER_SYMBOL, NativeCache, NativeProgram,
                          build_plan, native_cache_key)
from repro.native.program import stub_source

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from workloads import default_workloads, workload_by_name  # noqa: E402

CORPUS = Path(__file__).parent / "fuzz_corpus"
KERNELS = [w.name for w in default_workloads()]


@pytest.fixture
def fresh_native_cache(tmp_path):
    """Point the process-wide native cache at an empty directory for
    one test, restoring the previous cache afterwards."""
    saved = native_builder._default_cache
    cache = native_builder.configure(cache_dir=tmp_path / "native")
    yield cache
    native_builder._default_cache = saved


def _count_gcc_calls(monkeypatch):
    """Count subprocess launches made by the native builder."""
    calls = []
    real_run = native_builder.subprocess.run

    def counting_run(cmd, *args, **kwargs):
        calls.append(list(cmd))
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(native_builder.subprocess, "run", counting_run)
    return calls


# ---------------------------------------------------------------------------
# Differential: every E1 kernel, native vs golden vs the simulator


@requires_gcc
@pytest.mark.parametrize("kernel", KERNELS)
def test_native_matches_golden_and_simulators(kernel):
    workload = workload_by_name(kernel)
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry,
                            processor="vliw_simd_dsp")
    inputs = workload.inputs(seed=3)
    golden = workload.golden(inputs)

    native = result.simulate(list(inputs), backend="native")
    compiled = result.simulate(list(inputs), backend="compiled")

    # Scalar outputs come back as bare Python scalars from every
    # backend (the golden interpreter keeps them 1x1); canonicalize to
    # 2-D before comparing, like the fuzz oracle does.
    produced = np.atleast_2d(np.asarray(native.outputs[0]))
    assert produced.shape == np.atleast_2d(np.asarray(golden)).shape
    assert type(native.outputs[0]) is type(compiled.outputs[0]), \
        f"{kernel}: native output type differs from the simulator"
    for label, other in (("golden", golden),
                         ("compiled", compiled.outputs[0])):
        assert np.allclose(produced, np.atleast_2d(np.asarray(other)),
                           atol=workload.tolerance,
                           rtol=workload.tolerance), \
            f"{kernel}: native output diverges from {label}"

    # The native tier does no cycle accounting by design; the
    # simulator's report on these inputs is pinned.
    assert native.report.total == 0
    assert_cycles_pinned(f"workload/{kernel}", workload.source, compiled)


@requires_gcc
def test_native_rejects_hotspot_profiling():
    workload = workload_by_name("fir")
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry)
    with pytest.raises(ValueError, match="hotspot"):
        result.simulate(list(workload.inputs()), backend="native",
                        hotspots=True)


@requires_gcc
def test_native_arity_and_shape_errors():
    workload, _, program = _native_program("fir")
    entry = program.plan.entry
    x, h = workload.inputs()
    for args in ([x], [x, h, h], []):
        message = f"{entry}: expected 2 arguments, got {len(args)}"
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            program.run(args)
    with pytest.raises(SimulationError,
                       match=r"^argument 'x': expected 256 elements, "
                             r"got 7$"):
        program.run([np.zeros((1, 7), np.float32), h])
    result, (value, _) = _signature("int32 scalar input")
    with pytest.raises(SimulationError,
                       match=r"^expected a scalar argument, got an array "
                             r"of 2 elements$"):
        result.native_program().run([value, np.array([1, 2])])


# ---------------------------------------------------------------------------
# Marshalling contract of the per-program call plan


def _native_program(kernel):
    workload = workload_by_name(kernel)
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry,
                            processor="vliw_simd_dsp")
    return workload, result, result.native_program()


def _same_outputs(got, want) -> bool:
    """Exactly equal in value, Python type, dtype and shape."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if type(a) is not type(b):
            return False
        if isinstance(a, np.ndarray):
            if a.dtype != b.dtype or not np.array_equal(a, b):
                return False
        elif a != b:
            return False
    return True


def _reference_buffers(program, args):
    """Each argument marshalled by the straightforward recipe (ravel
    column-major, then cast to the slot dtype; scalars through the
    simulators' coercion), already in the wrapper's buffer form."""
    from repro.ir.types import ScalarType
    from repro.sim.machine import coerce_scalar

    buffers = []
    for slot, value in zip(program.plan.params, args):
        if slot.is_array:
            buffers.append(np.ravel(np.asarray(value), order="F")
                           .astype(slot.dtype))
        else:
            buffers.append(coerce_scalar(value, ScalarType(slot.kind)))
    return buffers


def _read_only(value):
    copy = np.array(value)
    copy.flags.writeable = False
    return copy


@requires_gcc
@pytest.mark.parametrize("kernel", KERNELS)
def test_native_input_layouts_marshal_identically(kernel):
    workload, _, program = _native_program(kernel)
    args = list(workload.inputs(0))
    want = program.run(_reference_buffers(program, args)).outputs
    variants = {
        "as given": args,
        "read-only": [_read_only(v) for v in args],
        "C-ordered": [np.ascontiguousarray(v) for v in args],
        "F-ordered": [np.asfortranarray(v) for v in args],
        # float32 slots fed float64 arrays are cast, not rejected.
        "widened": [v.astype(np.float64) if v.dtype == np.float32 else v
                    for v in args],
    }
    for label, variant in variants.items():
        assert _same_outputs(program.run(variant).outputs, want), \
            f"{kernel}: {label} inputs marshal differently"


@requires_gcc
def test_native_outputs_are_fresh_per_call():
    workload, _, program = _native_program("matmul")
    first = program.run(list(workload.inputs(0))).outputs
    kept = [np.array(value, copy=True) for value in first]
    second = program.run(list(workload.inputs(1))).outputs
    assert not np.array_equal(first[0], second[0])
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))


@requires_gcc
@pytest.mark.parametrize("kernel", ["matmul", "bf_weights"])
def test_native_program_is_reentrant_across_threads(kernel):
    import threading

    workload, _, program = _native_program(kernel)
    inputs = [list(workload.inputs(seed)) for seed in (0, 1)]
    expected = [program.run(args).outputs for args in inputs]
    barrier = threading.Barrier(len(inputs))
    mismatches = [0] * len(inputs)

    def hammer(index: int) -> None:
        barrier.wait()
        for _ in range(200):
            outputs = program.run(inputs[index]).outputs
            if not _same_outputs(outputs, expected[index]):
                mismatches[index] += 1

    threads = [threading.Thread(target=hammer, args=(index,))
               for index in range(len(inputs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert mismatches == [0, 0]


# ---------------------------------------------------------------------------
# The generated call stub


#: Entry signatures that each take one marshalling path of the stub:
#: name -> (source, argument types, inputs, (param slots, output
#: slots) as (kind name, is_array) pairs).
SIGNATURES = {
    "logical outputs": (
        "function [m, big] = flags(x)\nm = x > 0.5;\nbig = sum(x) > 2;\n"
        "end\n",
        [arg((1, 8))], lambda: [np.linspace(0, 1, 8).reshape(1, 8)],
        ([("F64", True)], [("BOOL", True), ("BOOL", False)])),
    "int32 scalar input": (
        "function y = addk(x, k)\ny = x + k;\nend\n",
        [arg((2, 3), "int32"), arg(dtype="int32")],
        lambda: [np.arange(6, dtype=np.int32).reshape(2, 3), 7],
        ([("I32", True), ("I32", False)], [("I32", True)])),
    "complex scalars": (
        "function z = cmul(a, b)\nz = a * b + 1;\nend\n",
        [arg(complex=True), arg(complex=True)],
        lambda: [1 + 2j, np.array([[3 - 1j]])],
        ([("C128", False), ("C128", False)], [("C128", False)])),
    "single fed double": (
        "function y = twice(x)\ny = x * 2 + 1;\nend\n",
        [arg((3, 4), "single")],
        lambda: [np.arange(12, dtype=np.float64).reshape(3, 4) / 7],
        ([("F32", True)], [("F32", True)])),
    # A read-only F-ordered array ravels to a read-only view: its
    # address comes from the ``ctypes.data`` fallback.
    "read-only input": (
        "function y = scale(x)\ny = 3 * x;\nend\n",
        [arg((4, 3))],
        lambda: [_read_only(np.asfortranarray(
            np.arange(12, dtype=np.float64).reshape(4, 3)))],
        ([("F64", True)], [("F64", True)])),
}


def _signature(case):
    source, types, inputs, _ = SIGNATURES[case]
    return compile_source(source, args=types), inputs()


@requires_gcc
@pytest.mark.parametrize("case", sorted(SIGNATURES))
def test_stub_matches_simulator_across_signatures(case):
    result, inputs = _signature(case)
    program = result.native_program()
    params, outputs = SIGNATURES[case][3]
    assert [(s.kind.name, s.is_array) for s in program.plan.params] \
        == params
    assert [(s.kind.name, s.is_array) for s in program.plan.outputs] \
        == outputs
    native = result.simulate(inputs, backend="native").outputs
    compiled = result.simulate(inputs, backend="compiled").outputs
    assert [np.shape(value) for value in native] == \
        [np.shape(value) for value in compiled]
    assert _same_outputs(native, compiled), f"{case}: {native} != {compiled}"


def _plans():
    for kernel in KERNELS:
        workload = workload_by_name(kernel)
        yield kernel, compile_source(workload.source,
                                     args=workload.arg_types,
                                     entry=workload.entry)
    for case in sorted(SIGNATURES):
        yield case, _signature(case)[0]


def test_stub_source_is_straight_line():
    for name, result in _plans():
        plan = build_plan(result.module)
        source = stub_source(plan)
        tree = ast.parse(source)
        loops = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.For, ast.While, ast.ListComp,
                                      ast.GeneratorExp, ast.DictComp,
                                      ast.SetComp))]
        assert loops == [], f"{name}: stub loops\n{source}"
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        assert "zip" not in names, f"{name}: stub zips\n{source}"
        lines = [line.strip() for line in source.splitlines()]
        for index in range(len(plan.params)):
            marshal = [line for line in lines
                       if line.startswith(f"b{index} = ")]
            assert len(marshal) == 1, f"{name}: input {index}\n{source}"
        for index in range(len(plan.outputs)):
            alloc = [line for line in lines
                     if line.startswith(f"o{index} = zeros(")]
            assert len(alloc) == 1, f"{name}: output {index}\n{source}"
        assert len([line for line in lines if line == "fn(ip, op)"]) == 1


@requires_gcc
@pytest.mark.parametrize("name", ["fir", "bf_weights", "channel_est",
                                  *sorted(SIGNATURES)])
def test_raw_wrapper_call_fills_run_outputs(name):
    """The ``(void**, void**)`` wrapper ABI that perfbench times raw:
    called on buffers marshalled by hand, it fills what ``run``
    returns."""
    if name in SIGNATURES:
        result, args = _signature(name)
        program = result.native_program()
    else:
        workload, _, program = _native_program(name)
        args = list(workload.inputs(0))
    assert program.stub_source == stub_source(program.plan)
    want = program.run(args).outputs
    fn = getattr(native_builder.default_cache().load(program.source),
                 WRAPPER_SYMBOL)
    fn.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                   ctypes.POINTER(ctypes.c_void_p)]
    fn.restype = None
    plan = program.plan
    ins = [buf if slot.is_array else np.full(1, buf, slot.dtype)
           for slot, buf in zip(plan.params,
                                _reference_buffers(program, args))]
    outs = [np.zeros(slot.numel, slot.dtype) for slot in plan.outputs]
    fn((ctypes.c_void_p * max(1, len(ins)))(
           *(buf.ctypes.data for buf in ins)),
       (ctypes.c_void_p * max(1, len(outs)))(
           *(buf.ctypes.data for buf in outs)))
    for buf, value, slot in zip(outs, want, plan.outputs):
        assert np.array_equal(
            buf, np.ravel(np.asarray(value), order="F").astype(slot.dtype))


@requires_gcc
def test_native_simulate_telemetry():
    from repro.observe import trace as obs_trace
    from repro.observe.trace import TraceSession

    workload, result, _ = _native_program("fir")
    args = list(workload.inputs(0))
    session = TraceSession()
    with obs_trace.use(session):
        result.simulate(args, backend="native")
    counters = session.metrics.counters
    assert counters["sim.runs"] == 1
    assert counters["sim.runs.native"] == 1
    histograms = session.metrics.snapshot()["histograms"]
    assert histograms["sim.native.run_s"]["count"] == 1
    [span] = [span for span in session.spans if span.name == "simulate"]
    [event] = [event for event in session.events
               if event["kind"] == "sim.run"]
    assert event["span_id"] == span.id != 0
    assert event["backend"] == "native"

    disabled = obs_trace.current()
    assert not disabled.enabled
    before = disabled.metrics.snapshot()
    result.simulate(args, backend="native")
    assert disabled.spans == [] and disabled.events == []
    assert disabled.metrics.snapshot() == before


def test_native_missing_compiler_is_backend_error():
    workload = workload_by_name("fir")
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry)
    with pytest.raises(BackendError, match="host C compiler"):
        result.native_program(cc="no-such-cc-binary")


# ---------------------------------------------------------------------------
# Fuzz-oracle harness: corpus replay and a seed sweep


@requires_gcc
@pytest.mark.parametrize("name",
                         sorted(p.stem for p in CORPUS.glob("*.m")))
def test_corpus_replays_through_native_harness(name):
    prog, _ = load_reproducer(CORPUS, name)
    oracle = DifferentialOracle(harness="native")
    verdict = oracle.run(prog)
    assert verdict.ok, \
        f"{name}: {verdict.status} ({verdict.engine}): {verdict.detail}"


@requires_gcc
def test_fuzz_sweep_through_native_harness():
    """100 generated seeds through compiled + native-gcc engines: no
    divergences, no crashes."""
    oracle = DifferentialOracle(engines=["compiled", "gcc"],
                                harness="native")
    assert oracle.harness == "native"
    statuses = {"ok": 0, "skip": 0}
    for seed in range(100):
        verdict = oracle.run(ProgramGenerator(seed).generate())
        assert not verdict.interesting, \
            f"seed {seed}: {verdict.status} ({verdict.engine}): " \
            f"{verdict.detail}"
        statuses[verdict.status] += 1
    assert statuses["ok"] >= 90, f"too many skips: {statuses}"


def test_unknown_harness_rejected():
    with pytest.raises(ValueError, match="harness"):
        DifferentialOracle(harness="telnet")


# ---------------------------------------------------------------------------
# Caching: warm paths perform zero compiler invocations


@requires_gcc
def test_second_native_simulate_runs_no_compiler(fresh_native_cache,
                                                 monkeypatch):
    workload = workload_by_name("matmul")
    # use_cache=False: the compilation cache would otherwise hand back
    # a result object from an earlier test with its NativeProgram (and
    # loaded .so) already attached.
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry, use_cache=False)
    inputs = workload.inputs(seed=5)
    calls = _count_gcc_calls(monkeypatch)

    first = result.simulate(list(inputs), backend="native")
    assert len(calls) == 1, "first native simulate must build once"

    second = result.simulate(list(inputs), backend="native")
    assert len(calls) == 1, \
        "second native simulate must hit the cache (zero gcc runs)"
    assert np.array_equal(np.asarray(first.outputs[0]),
                          np.asarray(second.outputs[0]))

    # A *fresh* compilation of the same source hits the in-memory
    # loaded-library table through the shared default cache.
    again = compile_source(workload.source, args=workload.arg_types,
                           entry=workload.entry, use_cache=False)
    again.simulate(list(inputs), backend="native")
    assert len(calls) == 1
    stats = fresh_native_cache.stats()
    assert stats["builds"] == 1
    assert stats["cache_hits"] >= 1


@requires_gcc
def test_disk_cache_shared_across_cache_instances(tmp_path, monkeypatch):
    """A second NativeCache over the same directory dlopens the published
    artifact instead of rebuilding (the cross-process warm path)."""
    workload = workload_by_name("fir")
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry)
    calls = _count_gcc_calls(monkeypatch)

    first = NativeCache(cache_dir=tmp_path)
    NativeProgram(result.module, result.processor, cache=first)
    assert len(calls) == 1

    second = NativeCache(cache_dir=tmp_path)
    program = NativeProgram(result.module, result.processor, cache=second)
    assert len(calls) == 1, "published .so must be reused, not rebuilt"
    assert second.stats()["disk_hits"] == 1

    inputs = workload.inputs(seed=1)
    out = program.run(list(inputs)).outputs[0]
    assert np.allclose(np.asarray(out), workload.golden(inputs),
                       atol=workload.tolerance, rtol=workload.tolerance)


@requires_gcc
def test_warm_publishes_without_loading(tmp_path):
    from repro.native.abi import native_source
    workload = workload_by_name("fir")
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry)
    source = native_source(result.module, result.processor)
    cache = NativeCache(cache_dir=tmp_path)
    assert cache.warm(source) is True
    assert cache.warm(source) is False      # already published
    key = native_cache_key(source, "gcc")
    assert (tmp_path / key[:2] / f"{key}.so").is_file()
    assert cache.stats()["loaded"] == 0


@requires_gcc
def test_disk_eviction_keeps_newest(tmp_path):
    cache = NativeCache(cache_dir=tmp_path, disk_limit=2)
    import os
    import time
    sources = []
    for index in range(3):
        src = ("int repro_probe_%d(void) { return %d; }\n"
               % (index, index))
        cache.warm(src)
        key = native_cache_key(src, "gcc")
        path = tmp_path / key[:2] / f"{key}.so"
        stamp = time.time() - (10 - index)
        os.utime(path, (stamp, stamp))
        sources.append((src, path))
    # Trigger one more eviction sweep via a fourth build.
    cache.warm("int repro_probe_last(void) { return 9; }\n")
    survivors = sorted(tmp_path.glob("*/*.so"))
    assert len(survivors) == 2
    assert not sources[0][1].is_file(), "oldest artifact must be evicted"
    assert cache.stats()["evictions"] >= 2


@requires_gcc
def test_eviction_spares_in_flight_builds(tmp_path, monkeypatch):
    """Another cache's eviction sweep over the same directory, run while
    a build's output is still unpublished, must not unlink it (which
    broke the builder's ``os.replace``) nor count it as an eviction."""
    sweeper = NativeCache(cache_dir=tmp_path, disk_limit=0)
    real_run = native_builder.subprocess.run

    def compile_then_sweep(cmd, *args, **kwargs):
        proc = real_run(cmd, *args, **kwargs)
        sweeper._evict()
        return proc

    monkeypatch.setattr(native_builder.subprocess, "run",
                        compile_then_sweep)
    source = "int repro_probe_race(void) { return 7; }\n"
    cache = NativeCache(cache_dir=tmp_path)
    assert cache.warm(source) is True
    key = native_cache_key(source, "gcc")
    assert (tmp_path / key[:2] / f"{key}.so").is_file()
    assert sweeper.stats()["evictions"] == 0
    assert list(tmp_path.glob("*/.*.tmp")) == []


@requires_gcc
def test_run_points_compiles_once(fresh_native_cache, monkeypatch):
    prog = ProgramGenerator(0).generate()
    oracle = DifferentialOracle(engines=["compiled", "gcc"],
                                harness="native")
    calls = _count_gcc_calls(monkeypatch)
    verdicts = oracle.run_points(prog, [prog.inputs() for _ in range(4)])
    assert len(verdicts) == 4
    assert all(v.ok for v in verdicts), \
        [(v.status, v.detail) for v in verdicts]
    assert len(calls) == 1, \
        "run_points must compile one .so for the whole point set"


@requires_gcc
def test_exec_harness_still_works():
    prog = ProgramGenerator(0).generate()
    oracle = DifferentialOracle(engines=["gcc"], harness="exec")
    verdict = oracle.run(prog)
    assert verdict.ok, f"{verdict.status}: {verdict.detail}"


# ---------------------------------------------------------------------------
# Flag split (satellite): -lm stays after the sources


def test_flag_split_contract():
    assert harness.DEFAULT_FLAGS == [*harness.COMPILE_FLAGS,
                                     *harness.LINK_FLAGS]
    assert "-lm" in harness.LINK_FLAGS
    assert not any(f.startswith("-l") for f in harness.COMPILE_FLAGS)
    compile_, link = harness.split_flags(["-std=c89", "-lm", "-O1"])
    assert compile_ == ["-std=c89", "-O1"]
    assert link == ["-lm"]
    # The .so build shares the strict-ANSI contract.
    assert set(harness.STRICT_FLAGS) <= set(native_builder.SO_COMPILE_FLAGS)


def test_cache_key_sensitivity():
    base = native_cache_key("int x;", "gcc")
    assert native_cache_key("int y;", "gcc") != base
    assert native_cache_key("int x;", "clang") != base
    assert native_cache_key("int x;", "gcc",
                            compile_flags=["-O3"]) != base
    assert native_cache_key("int x;", "gcc") == base
