"""The traced run: per-layer metrics, timed from the benchmark side.

No tracing is added inside ``src/``.  Each section calls the public
functions of one group of layers and times the calls from here:

* **compile** replays ``compile_source`` stage by stage (parse,
  specialize, lower, inline, the two pass pipelines, the three
  vectorize/select stages, C emission) for every kernel in both
  configurations.  Pass managers get pass objects that time each
  ``run``.  The replay's C must be byte-identical to ``compile_source``'s
  or the run fails; traced against untraced corpus time is reported as
  ``trace.overhead_ratio``.
* **serve** sends a fixed number of hits and misses per kernel through
  ``ServeClient.compile`` (HTTP) and ``CompileDaemon.submit``
  (in-process), and compiles the same misses in-process, so the cost of
  HTTP/JSON and of the pool/pickling/disk cache fall out as
  differences.
* **exec** times closure translation, the gcc + dlopen build, compiled
  simulator runs, ``NativeProgram.run`` and a raw call of the wrapper
  symbol on pre-marshalled buffers.

Times of the compile layers are seconds per corpus pass (ten kernels,
both configurations), medians over passes; counts are per corpus pass
and exact.  The section is the same whichever ``--workload`` is named,
so every per-layer metric is reported on every workload.
"""

from __future__ import annotations

import ctypes
import dataclasses
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

import numpy as np

from common import (CONFIGS, OPT, calibration_s, compile_kernel,
                    isolate_caches, kernels, matches_golden, metric)
from serve_stack import SERVE_FILENAME, Requests, ServeStack

PASS_NAMES = ("constant-propagation", "constant-folding", "loop-fusion",
              "licm", "dce", "cse")
SERVE_COUNTERS = ("serve.requests", "serve.cache_hits", "serve.accepted",
                  "serve.compiles", "serve.compile_batches")
#: Share of ``--seconds`` given to the compile replay; the serve section
#: is a fixed amount of work and the exec section takes what is left.
COMPILE_SHARE = 0.45
MIN_REPS = 2
SERVE_MISSES = 3       # misses per kernel per path
SERVE_HITS = 30        # hits per kernel per path
SIM_REPEATS = 3
NATIVE_CALLS = 200
CALIBRATION_LOOPS = 25


# -- compile: stage-by-stage replay -----------------------------------------

class Clock:
    """Seconds accumulated per metric name."""

    def __init__(self):
        self.seconds = defaultdict(float)

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


class TimedPass:
    """A pass object for ``PassManager`` that times the pass it wraps.
    It keeps the wrapped pass's ``name``, so change counts and remarks
    are keyed exactly as in an untraced compile."""

    def __init__(self, inner, clock: Clock):
        self.inner = inner
        self.name = inner.name
        self._clock = clock

    def run(self, func) -> bool:
        with self._clock(f"pass.{self.name}_s"):
            return self.inner.run(func)


def _timed_pipeline(manager, clock):
    from repro.ir.passes.manager import PassManager
    return PassManager(passes=[TimedPass(p, clock) for p in manager.passes],
                       max_rounds=manager.max_rounds)


def count_nodes(module) -> int:
    """Expression and statement nodes reachable from every body."""
    from repro.ir import nodes as ir

    count = 0
    stack = [stmt for func in module.functions for stmt in func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (list, tuple)):
            stack.extend(node)
        elif isinstance(node, (ir.Expr, ir.Stmt)):
            count += 1
            stack.extend(getattr(node, f.name)
                         for f in dataclasses.fields(node))
    return count


def replay(kernel, config, clock: Clock, counts) -> str:
    """``compile_source(..., use_cache=False).c_source()``, one stage
    at a time, in the same order and under a trace session as
    ``compile_source`` installs one."""
    from repro.asip.isa_library import load_processor
    from repro.backend.emitter import emit_c
    from repro.compiler import CompilerOptions
    from repro.frontend.parser import parse
    from repro.frontend.source import SourceFile
    from repro.ir.builder import lower_program
    from repro.ir.passes.inline import FunctionInlining
    from repro.ir.passes.manager import cleanup_pipeline, standard_pipeline
    from repro.observe import trace as obs_trace
    from repro.observe.remarks import PASSED
    from repro.semantics.inference import specialize_program
    from repro.vectorize.complexops import ComplexInstructionSelector
    from repro.vectorize.idioms import ClipSelector, ScalarMacSelector
    from repro.vectorize.simd import SimdVectorizer

    mode, processor_name = config
    options = CompilerOptions.baseline() if mode == "baseline" \
        else CompilerOptions()
    processor = load_processor(processor_name)
    session = obs_trace.TraceSession()
    with obs_trace.use(session):
        with clock("frontend.parse_s"):
            source_file = SourceFile(kernel.source, "<string>")
            program = parse(kernel.source, "<string>")
        with clock("semantics.specialize_s"):
            sprog = specialize_program(program, kernel.entry,
                                       list(kernel.arg_types), source_file)
        with clock("ir.lower_s"):
            module = lower_program(
                sprog, mode="naive" if mode == "baseline" else "fused")
        counts["ir.nodes_lowered"] += count_nodes(module)
        stats = defaultdict(int)
        if options.inline:
            with clock("ir.passes.inline_s"):
                FunctionInlining().run_module(module)
        if options.scalar_opt:
            with clock("ir.passes.scalar_opt_s"):
                for name, n in _timed_pipeline(standard_pipeline(),
                                               clock).run(module).items():
                    stats[name] += n
        if options.simd:
            with clock("vectorize.simd_s"):
                vectorizer = SimdVectorizer(processor)
                for func in module.functions:
                    vectorizer.run(func)
        if options.complex_isel:
            with clock("vectorize.complex_isel_s"):
                selector = ComplexInstructionSelector(processor)
                for func in module.functions:
                    selector.run(func)
        if options.scalar_mac:
            with clock("vectorize.idiom_s"):
                mac = ScalarMacSelector(processor)
                clip = ClipSelector(processor)
                for func in module.functions:
                    clip.run(func)
                    mac.run(func)
        if options.scalar_opt:
            with clock("ir.passes.cleanup_s"):
                for name, n in _timed_pipeline(cleanup_pipeline(),
                                               clock).run(module).items():
                    stats[name] += n
        with clock("backend.emit_s"):
            c_text = emit_c(module, processor)
    for name in PASS_NAMES:
        counts[f"pass.{name}.changed"] += stats.get(name, 0)
    counts["ir.passes.rounds"] += sum(
        n for name, n in stats.items() if name.startswith("rounds["))
    counts["vectorize.loops_vectorized"] += sum(
        1 for remark in session.remarks
        if remark.kind == PASSED and remark.pass_name == "simd-vectorize")
    return c_text


def _compile_section(corpus, budget_s, sandbox, tally) -> dict:
    reps = []
    counts = None
    deadline = time.perf_counter() + budget_s
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        clock, rep_counts = Clock(), defaultdict(int)
        results = []
        for kernel in corpus:
            for config in CONFIGS:
                with clock("compile.untraced_s"):
                    result = compile_kernel(kernel, config)
                    expected = result.c_source()
                with clock("compile.traced_s"):
                    c_text = replay(kernel, config, clock, rep_counts)
                tally.check(c_text == expected,
                            f"{kernel.name}/{config[0]}: traced replay "
                            "emitted different C than compile_source")
                results.append((kernel, result))
        _time_cache(results, clock, sandbox, tally)
        reps.append(clock.seconds)
        if counts is None:
            counts = rep_counts
        tally.invariant(rep_counts == counts,
                        "compile replay counts differ between passes")
    out = {name: metric(median(rep[name] for rep in reps), "s")
           for name in reps[0]}
    out.update({name: metric(n, "count") for name, n in counts.items()})
    out["trace.overhead_ratio"] = metric(
        out["compile.traced_s"]["value"]
        / out["compile.untraced_s"]["value"], "ratio")
    print(f"layers: {len(reps)} compile replay passes", file=sys.stderr)
    return out


def _time_cache(results, clock, sandbox, tally) -> None:
    """``cache_key`` and in-memory ``CompilationCache.get`` hits for
    every result of one corpus pass."""
    from repro.cache import CompilationCache, cache_key

    store = CompilationCache(cache_dir=sandbox.fresh_dir("keys"))
    keys = []
    for kernel, result in results:
        with clock("cache.key_s"):
            key = cache_key(kernel.source, kernel.arg_types, kernel.entry,
                            result.processor, result.options, "<string>")
        store.put(key, result)
        keys.append((key, result))
    for key, result in keys:
        with clock("cache.get_hit_s"):
            hit = store.get(key)
        tally.check(hit is result, "cache.get missed a stored result")


# -- serve ------------------------------------------------------------------

def _serve_section(corpus, seed, sandbox, tally) -> dict:
    from repro.serve import CompileRequest

    requests = Requests(corpus, seed)
    samples = defaultdict(lambda: defaultdict(list))
    stack = ServeStack(sandbox)
    try:
        daemon, client = stack.daemon, stack.client

        def submit(kernel, source, cached):
            t0 = time.perf_counter()
            reply = daemon.submit(CompileRequest(
                source=source, args=requests.specs[kernel.name],
                entry=kernel.entry, filename=SERVE_FILENAME)).wait(120)
            elapsed = time.perf_counter() - t0
            tally.check(reply.ok and reply.cached is cached
                        and reply.c_source
                        == requests.reference_c[kernel.name],
                        f"{kernel.name}: in-process submit failed: "
                        f"{reply.status} {reply.detail}")
            return elapsed

        def http(kernel, source, cached):
            elapsed, reply = requests.send(client, kernel, source)
            tally.check(requests.verified(reply, kernel, cached),
                        f"{kernel.name}: HTTP compile failed: "
                        f"{reply.get('status')} {reply.get('detail', '')}")
            return elapsed

        for kernel in corpus:
            http(kernel, kernel.source, cached=False)    # warm the hit
        for _ in range(SERVE_MISSES):
            for kernel in corpus:
                name = kernel.name
                samples["serve.http_miss_s"][name].append(
                    http(kernel, requests.variant(kernel), cached=False))
                samples["serve.submit_miss_s"][name].append(
                    submit(kernel, requests.variant(kernel), cached=False))
                t0 = time.perf_counter()
                c_text = compile_kernel(kernel, OPT,
                                        source=requests.variant(kernel),
                                        filename=SERVE_FILENAME).c_source()
                samples["inprocess_compile_s"][name].append(
                    time.perf_counter() - t0)
                tally.check(c_text == requests.reference_c[name],
                            f"{name}: in-process variant compile differs")
        for kernel in corpus:
            for _ in range(SERVE_HITS):
                samples["serve.http_hit_s"][kernel.name].append(
                    http(kernel, kernel.source, cached=True))
                samples["serve.submit_hit_s"][kernel.name].append(
                    submit(kernel, kernel.source, cached=True))
        counters = daemon.registry.snapshot()["counters"]
        cache_stats = daemon.cache.stats()
    finally:
        stack.close()

    # Per-request seconds: the mean over kernels of each kernel's median.
    per_request = {
        name: sum(median(v) for v in by_kernel.values()) / len(by_kernel)
        for name, by_kernel in samples.items()}
    out = {name: metric(value, "s") for name, value in per_request.items()
           if name.startswith("serve.")}
    out["service.miss_overhead_s"] = metric(
        per_request["serve.submit_miss_s"]
        - per_request["inprocess_compile_s"], "s")
    out.update({name: metric(counters.get(name, 0), "count")
                for name in SERVE_COUNTERS})
    out["cache.hits"] = metric(cache_stats["hits"], "count")
    out["cache.disk_reads"] = metric(cache_stats["disk_reads"], "count")
    return out


# -- exec -------------------------------------------------------------------

def _marshal(slot, value) -> np.ndarray:
    """The wrapper's element buffer for one argument, built once."""
    from repro.ir.types import ScalarKind, ScalarType
    from repro.sim.machine import coerce_scalar

    if slot.is_array:
        return np.ascontiguousarray(
            np.ravel(np.asarray(value), order="F"), dtype=slot.dtype)
    scalar = coerce_scalar(value, ScalarType(slot.kind))
    if slot.kind is ScalarKind.BOOL:
        scalar = int(scalar)
    return np.full(1, scalar, dtype=slot.dtype)


def _raw_dispatch_s(program, inputs, expected, tally, name) -> float:
    """Per-call seconds of the bare wrapper symbol on buffers marshalled
    once, checked against ``NativeProgram.run``'s outputs."""
    from repro import native

    fn = getattr(native.default_cache().load(program.source),
                 native.WRAPPER_SYMBOL)
    fn.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                   ctypes.POINTER(ctypes.c_void_p)]
    fn.restype = None
    plan = program.plan
    in_bufs = [_marshal(slot, value)
               for slot, value in zip(plan.params, inputs)]
    out_bufs = [np.zeros(slot.numel, dtype=slot.dtype)
                for slot in plan.outputs]
    in_ptrs = (ctypes.c_void_p * max(1, len(in_bufs)))(
        *(buf.ctypes.data for buf in in_bufs))
    out_ptrs = (ctypes.c_void_p * max(1, len(out_bufs)))(
        *(buf.ctypes.data for buf in out_bufs))
    t0 = time.perf_counter()
    for _ in range(NATIVE_CALLS):
        fn(in_ptrs, out_ptrs)
    elapsed = (time.perf_counter() - t0) / NATIVE_CALLS
    tally.check(all(np.array_equal(buf, np.ravel(np.asarray(value),
                                                 order="F"))
                    for buf, value in zip(out_bufs, expected)),
                f"{name}: raw wrapper call differs from NativeProgram.run")
    return elapsed


def _exec_section(corpus, seed, deadline, sandbox, tally) -> dict:
    from repro import native

    inputs = {k.name: list(k.inputs(seed)) for k in corpus}
    golden = {k.name: k.golden(inputs[k.name]) for k in corpus}
    reps = []
    cycles_total = None
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        native.configure(cache_dir=sandbox.fresh_dir("native"))
        results = {k.name: compile_kernel(k, OPT) for k in corpus}
        clock = Clock()
        cycles = 0
        run_s, dispatch_s = [], []
        for kernel in corpus:
            name, args = kernel.name, inputs[kernel.name]
            result = results[name]
            with clock("sim.translate_s"):
                result.compiled_program()
            with clock("native.build_s"):
                program = result.native_program()
            runs = []
            for _ in range(SIM_REPEATS):
                t0 = time.perf_counter()
                sim = result.compiled_program().run(args)
                runs.append(time.perf_counter() - t0)
            clock.seconds["sim.run_s"] += median(runs)
            cycles += sim.report.total
            tally.check(matches_golden(sim.outputs, golden[name],
                                       kernel.tolerance),
                        f"{name}: simulator output differs from the "
                        "MATLAB interpreter")
            t0 = time.perf_counter()
            for _ in range(NATIVE_CALLS):
                nat = program.run(args)
            run_s.append((time.perf_counter() - t0) / NATIVE_CALLS)
            tally.check(matches_golden(nat.outputs, golden[name],
                                       kernel.tolerance),
                        f"{name}: native output differs from the "
                        "MATLAB interpreter")
            dispatch_s.append(_raw_dispatch_s(program, args, nat.outputs,
                                              tally, name))
        clock.seconds["native.run_s"] = sum(run_s) / len(run_s)
        clock.seconds["native.dispatch_s"] = sum(dispatch_s) / len(dispatch_s)
        reps.append(clock.seconds)
        cycles_total = cycles
    out = {name: metric(median(rep[name] for rep in reps), "s")
           for name in reps[0]}
    out["sim.host_ns_per_cycle"] = metric(
        out["sim.run_s"]["value"] / cycles_total * 1e9, "ns")
    print(f"layers: {len(reps)} exec passes", file=sys.stderr)
    return out


def run(workload: str, seed: int, seconds: float, sandbox, tally) -> dict:
    isolate_caches(sandbox)
    corpus = kernels()
    start = time.perf_counter()
    loops = [calibration_s() for _ in range(CALIBRATION_LOOPS)]
    metrics = _compile_section(corpus, seconds * COMPILE_SHARE, sandbox,
                               tally)
    loops += [calibration_s() for _ in range(CALIBRATION_LOOPS)]
    metrics.update(_serve_section(corpus, seed, sandbox, tally))
    loops += [calibration_s() for _ in range(CALIBRATION_LOOPS)]
    metrics.update(_exec_section(corpus, seed, start + seconds, sandbox,
                                 tally))
    loops += [calibration_s() for _ in range(CALIBRATION_LOOPS)]
    # Per-layer times are wall seconds; this is the machine speed they
    # were taken at (the end-to-end metrics' reference is 1 ms).
    metrics["calibration.loop_s"] = metric(median(loops), "s")
    print(f"layers: traced run for {workload} took "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return dict(sorted(metrics.items()))
