"""Public compiler API.

One call does the whole flow of the paper's Figure-1 pipeline::

    from repro import compile_source, arg

    result = compile_source(matlab_source,
                            args=[arg((1, 256)), arg((1, 16))],
                            processor="vliw_simd_dsp")
    print(result.c_source())               # ANSI C with ASIP intrinsics
    outputs = result.simulate([x, h])      # cycle-accurate ASIP run

Stages: parse -> type/shape specialization (MATLAB Coder-style ``args``
specs) -> IR lowering -> scalar optimization -> SIMD vectorization +
complex/MAC instruction selection against the parameterized processor
description -> ANSI C emission with intrinsics.

``mode="baseline"`` instead produces the MATLAB-Coder-like comparator:
naive scalarized C with no target knowledge, measured on the same
processor model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asip.isa_library import load_processor
from repro.asip.model import ProcessorDescription
from repro.frontend.parser import parse
from repro.frontend.source import SourceFile
from repro.ir import nodes as ir
from repro.ir.builder import lower_program
from repro.ir.passes.manager import cleanup_pipeline, standard_pipeline
from repro.observe import trace as obs_trace
from repro.observe.remarks import Remark
from repro.observe.trace import TraceSession
from repro.semantics.inference import SpecializedProgram, specialize_program
from repro.semantics.shapes import Shape
from repro.semantics.types import MType, dtype_from_name
from repro.vectorize.complexops import ComplexInstructionSelector
from repro.vectorize.idioms import ClipSelector, ScalarMacSelector
from repro.vectorize.simd import SimdVectorizer


def arg(shape: tuple[int, int] = (1, 1), dtype: str = "double",
        complex: bool = False, value: object = None) -> MType:
    """Describe one entry-point argument (like MATLAB Coder ``-args``).

    Args:
        shape: (rows, cols); scalars are (1, 1).
        dtype: MATLAB class name ('double', 'single', 'int16', ...).
        complex: True for complex-valued input.
        value: optional compile-time constant (scalars only) — the
            compiler will specialize on it.
    """
    numeric = dtype_from_name(dtype)
    if numeric is None:
        raise ValueError(f"unknown dtype {dtype!r}")
    rows, cols = shape
    return MType(numeric, complex, Shape(rows, cols), value)


@dataclass
class CompilerOptions:
    """Feature switches of the optimization pipeline (for ablations)."""

    mode: str = "optimized"          # "optimized" | "baseline"
    scalar_opt: bool = True          # folding/propagation/fusion/CSE/DCE
    inline: bool = True              # cross-function inlining
    simd: bool = True                # SIMD loop vectorization
    complex_isel: bool = True        # complex-arithmetic instructions
    scalar_mac: bool = True          # scalar MAC + clip idioms

    @staticmethod
    def baseline() -> "CompilerOptions":
        return CompilerOptions(mode="baseline", scalar_opt=False,
                               inline=False, simd=False,
                               complex_isel=False, scalar_mac=False)


#: Execution backends accepted by :meth:`CompilationResult.simulate`:
#: the cycle-accounting simulator and the native ``.so`` tier.
SIM_BACKENDS = ("compiled", "native")

#: Lazily-built per-result runtime state that must never be pickled
#: (the compiled program holds exec'd code objects, the native program
#: a dlopened library) or shared through the compilation cache's disk
#: layer.  The memoized C text is cheap to re-emit after a load, so it
#: stays out of pickles and disk entries too.
_RUNTIME_ATTRS = ("_compiled_program", "_native_programs", "_trace",
                  "_c_text")


@dataclass
class CompilationResult:
    """Everything produced for one entry point."""

    module: ir.IRModule
    sprog: SpecializedProgram
    processor: ProcessorDescription
    options: CompilerOptions
    source: SourceFile
    pass_stats: dict[str, int] = field(default_factory=dict)
    stage_times: dict[str, float] = field(default_factory=dict)
    #: Optimization remarks collected while this result was compiled
    #: (passed/missed/analysis decisions with MATLAB source lines).
    remarks: list[Remark] = field(default_factory=list)
    #: Times this exact result was served from the compilation cache
    #: (0 for a fresh compile).  ``stage_times`` always describe the
    #: original compilation, so cache hits keep their provenance.
    cache_hits: int = 0

    @property
    def entry_name(self) -> str:
        return self.module.entry

    @property
    def trace(self) -> "TraceSession | None":
        """The trace session of the compile that produced this result
        (None on cache-shared or unpickled results)."""
        return getattr(self, "_trace", None)

    def c_source(self) -> str:
        """Generated ANSI C (one translation unit, including intrinsics
        header content when emitted standalone), emitted once per
        result and memoized."""
        from repro.backend.emitter import emit_c
        text = getattr(self, "_c_text", None)
        if text is None:
            text = emit_c(self.module, self.processor)
            self._c_text = text
        return text

    def intrinsics_header(self) -> str:
        from repro.asip.header_gen import generate_header
        return generate_header(self.processor)

    def compiled_program(self):
        """The compiled-closure executor for this module (built once;
        plain and hotspot runs share it)."""
        program = getattr(self, "_compiled_program", None)
        if program is None:
            from repro.sim.compiled import CompiledProgram
            program = CompiledProgram(self.module, self.processor)
            self._compiled_program = program
        return program

    def native_program(self, cc: str = "gcc"):
        """The in-process native executor for this module.

        Built once per (result, compiler): the emitted translation unit
        plus the fixed-ABI dispatch wrapper is compiled to a ``.so``
        behind the content-addressed native artifact cache
        (:mod:`repro.native.builder`), dlopened, and reused for every
        subsequent call.  A warm artifact cache means zero compiler
        invocations here.
        """
        programs = getattr(self, "_native_programs", None)
        if programs is None:
            programs = {}
            self._native_programs = programs
        program = programs.get(cc)
        if program is None:
            from repro.native import NativeProgram
            program = NativeProgram(self.module, self.processor, cc=cc)
            programs[cc] = program
        return program

    def simulate(self, args: list[object], backend: str = "compiled",
                 hotspots: bool = False):
        """Run on the cycle-accurate ASIP model; returns ExecutionResult.

        Args:
            args: runtime argument values matching the compiled
                signature.
            backend: ``"compiled"`` (default; the cycle simulator, a
                one-time translation to Python closures reused across
                runs) or ``"native"`` (the emitted C compiled once to a
                shared object and called in-process — host-hardware
                speed, but no cycle accounting: the returned report is
                empty).  The native tier produces the simulator's
                outputs up to host-libm/printf differences (the fuzz
                oracle's gcc tolerances).
            hotspots: also record per-source-line cycle attribution
                (``ExecutionResult.line_cycles`` / ``hotspots()``); the
                native tier does not support profiling.
        """
        session = obs_trace.current()
        if backend == "native" and not hotspots and not session.enabled:
            # The warm native call: the program's stub does every other
            # check.
            return self.native_program().run(args)
        if backend not in SIM_BACKENDS:
            raise ValueError(
                f"unknown simulator backend {backend!r}; "
                f"expected one of {SIM_BACKENDS}")
        if backend == "native" and hotspots:
            raise ValueError(
                "the native backend performs no cycle accounting; "
                "use backend='compiled' for hotspots")
        if not session.enabled:
            return self._execute(args, backend, hotspots)
        with session.span("simulate", "sim", backend=backend,
                          entry=self.entry_name) as span:
            result = self._execute(args, backend, hotspots)
            span.set(cycles=result.report.total)
        session.counter("sim.runs")
        session.counter(f"sim.runs.{backend}")
        session.observe(f"sim.{backend}.run_s", span.duration)
        session.event("sim.run", backend=backend, entry=self.entry_name,
                      wall_s=round(span.duration, 6),
                      cycles=result.report.total, span_id=span.id)
        return result

    def _execute(self, args: list[object], backend: str, hotspots: bool):
        """One run on ``backend`` (validated by :meth:`simulate`)."""
        if backend == "native":
            return self.native_program().run(args)
        return self.compiled_program().run(args, hotspots=hotspots)

    def ir_dump(self) -> str:
        from repro.ir.printer import format_module
        return format_module(self.module)

    def instruction_mix(self, args: list[object]) -> dict[str, int]:
        """Custom-instruction counts for one input set (one
        :meth:`simulate` run)."""
        return self.simulate(args).report.instruction_counts

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in _RUNTIME_ATTRS:
            state.pop(name, None)
        return state


def compile_source(source: str,
                   args: list[MType],
                   entry: str | None = None,
                   processor: "ProcessorDescription | str" = "vliw_simd_dsp",
                   options: CompilerOptions | None = None,
                   filename: str = "<string>",
                   use_cache: bool = True,
                   observer: "TraceSession | None" = None) \
        -> CompilationResult:
    """Compile MATLAB ``source`` for one entry-point signature.

    Args:
        source: MATLAB source text (one or more functions).
        args: entry-point argument types, built with :func:`arg`.
        entry: entry function name; defaults to the first function.
        processor: a ProcessorDescription or the name of a shipped one.
        options: pipeline switches; defaults to the full optimizer.
        filename: name used in diagnostics.
        use_cache: consult the content-addressed compilation cache
            (:mod:`repro.cache`).  Results are shared on a hit — treat
            them as immutable.
        observer: trace session to collect spans/counters/remarks into;
            defaults to the ambient session
            (:func:`repro.observe.trace.current`) or, when none is
            installed, a private one (so stage timings and remarks are
            always available on the result).
    """
    from repro import cache as _cache

    if isinstance(processor, str):
        processor = load_processor(processor)
    options = options or CompilerOptions()

    session = observer if observer is not None else obs_trace.current()
    if not session.enabled:
        session = TraceSession()
    remark_mark = len(session.remarks)

    with obs_trace.use(session):
        key = None
        if use_cache:
            key = _cache.cache_key(source, args, entry, processor,
                                   options, filename)
            cached = _cache.default_cache().get(key)
            if cached is not None:
                # Shared hit: stage_times/remarks keep describing the
                # original compile; only the hit marker advances.
                cached.cache_hits += 1
                return cached
        result = _compile_uncached(source, args, entry, processor,
                                   options, filename, session,
                                   remark_mark)
        if key is not None:
            _cache.default_cache().put(key, result)
    return result


def _compile_uncached(source, args, entry, processor, options, filename,
                      session, remark_mark) -> CompilationResult:
    times: dict[str, float] = {}
    session.event("compile.start", processor=processor.name,
                  mode=options.mode, filename=filename)
    with session.span("compile", "compile", processor=processor.name,
                      mode=options.mode) as total_span:
        with session.span("parse", "stage") as span:
            source_file = SourceFile(source, filename)
            program = parse(source, filename)
        times["parse"] = span.duration
        if entry is None:
            main = program.main_function()
            if main is None:
                raise ValueError(
                    "source defines no functions; scripts cannot "
                    "be compiled (wrap the code in a function)")
            entry = main.name

        with session.span("specialize", "stage") as span:
            sprog = specialize_program(program, entry, list(args),
                                       source_file)
        times["specialize"] = span.duration
        lowering_mode = "naive" if options.mode == "baseline" else "fused"
        with session.span("lower", "stage") as span:
            module = lower_program(sprog, mode=lowering_mode)
        times["lower"] = span.duration

        stats: dict[str, int] = {}
        if options.inline:
            from repro.ir.passes.inline import FunctionInlining
            with session.span("inline", "stage") as span:
                if FunctionInlining().run_module(module):
                    stats["inline"] = 1
            times["inline"] = span.duration
        if options.scalar_opt:
            with session.span("scalar-opt", "stage") as span:
                _merge_stats(stats, standard_pipeline().run(module))
            times["scalar-opt"] = span.duration

        if options.simd:
            with session.span("simd", "stage") as span:
                vectorizer = SimdVectorizer(processor)
                for func in module.functions:
                    if vectorizer.run(func):
                        stats["simd-vectorize"] = \
                            stats.get("simd-vectorize", 0) + 1
            times["simd"] = span.duration
        if options.complex_isel:
            with session.span("complex-isel", "stage") as span:
                selector = ComplexInstructionSelector(processor)
                for func in module.functions:
                    if selector.run(func):
                        stats["complex-select"] = \
                            stats.get("complex-select", 0) + 1
            times["complex-isel"] = span.duration
        if options.scalar_mac:
            with session.span("idiom-select", "stage") as span:
                mac = ScalarMacSelector(processor)
                clip = ClipSelector(processor)
                for func in module.functions:
                    if clip.run(func):
                        stats["clip-idiom"] = \
                            stats.get("clip-idiom", 0) + 1
                    if mac.run(func):
                        stats["scalar-mac"] = \
                            stats.get("scalar-mac", 0) + 1
            times["idiom-select"] = span.duration
        if options.scalar_opt:
            # CSE + cleanup after instruction selection (CSE before the
            # vectorizer would hide its loop patterns behind
            # temporaries).
            with session.span("cleanup", "stage") as span:
                _merge_stats(stats, cleanup_pipeline().run(module))
            times["cleanup"] = span.duration

    times["total"] = total_span.duration
    for stage, seconds in times.items():
        session.observe(f"compile.stage.{stage}_s", seconds)
    session.event("compile.done", entry=module.entry,
                  wall_s=round(total_span.duration, 6),
                  span_id=total_span.id)
    result = CompilationResult(module=module, sprog=sprog,
                               processor=processor, options=options,
                               source=source_file, pass_stats=stats,
                               stage_times=times,
                               remarks=list(
                                   session.remarks[remark_mark:]))
    result._trace = session
    return result


def _merge_stats(stats: dict[str, int], new: dict[str, int]) -> None:
    """Accumulate pipeline statistics additively (the standard and
    cleanup pipelines both report pass counts and per-function round
    counts; later runs add to earlier ones instead of overwriting)."""
    for name, count in new.items():
        stats[name] = stats.get(name, 0) + count
