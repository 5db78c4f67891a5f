"""Multi-way differential oracle.

Runs one MATLAB program through every available execution path and
compares the outputs:

* ``interp`` — the golden numpy-backed :class:`MatlabInterpreter`;
* ``compiled`` — the cycle simulator (compiled-closure backend);
* ``gcc`` — the emitted ANSI C compiled by a host C compiler and
  executed (only when a compiler is on PATH).  Two harnesses: the
  default ``"native"`` builds one ``.so`` per program behind the
  content-addressed native artifact cache and calls it in-process
  (one compiler invocation per program, however many input points are
  evaluated); ``"exec"`` is the legacy text-mode path — a fresh
  main()-wrapper executable per call with inputs embedded and outputs
  parsed back from stdout — kept as a fallback and as a regression
  path for the printf round-trip itself.

The interpreter is the golden model: every other engine is compared
against it.  Comparison is NaN-aware (NaN positions must match
exactly; comparison happens on the non-NaN remainder, where matching
infinities pass) and dtype-aware (single-precision programs and the
printf-roundtripped gcc path get looser tolerances than pure-double
simulator runs).  Cycle reports are not judged here: they are pinned
exactly in ``tests/cycle_pins.json``.

``interp``-mode programs (growth-by-assignment, logical indexing,
matrix column iteration...) never reach the compiler; for those the
oracle runs interpreter-only consistency checks instead: determinism
across two runs, numpy warnings escalated to errors (silent value
corruption like complex-into-float stores shows up as a
``ComplexWarning``), and a metamorphic check that desugars matrix
``for`` iteration into explicit column indexing and demands identical
results (catches loop-variable aliasing bugs).
"""

from __future__ import annotations

import re
import shutil
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.compiler import CompilerOptions, compile_source
from repro.errors import UnsupportedFeatureError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.frontend.source import Span
from repro.frontend.unparse import to_source
from repro.fuzz.generator import GeneratedProgram
from repro.mlab.interp import MatlabInterpreter
from repro.observe import trace as obs_trace

#: Engines compared against the interpreter in compile mode.
COMPILE_ENGINES = ("compiled", "gcc")

#: Relative tolerance per (dtype, engine-path) combination.  The
#: simulator computes in float64 except where the program is
#: declared single (then per-op float32 rounding applies); the gcc path
#: additionally round-trips values through printf/strtod and libm
#: implementations differ between the host and numpy.
_TOLERANCE = {
    ("double", "sim"): 1e-9,
    ("double", "gcc"): 1e-7,
    ("single", "sim"): 2e-4,
    ("single", "gcc"): 2e-4,
}


def have_gcc(cc: str = "gcc") -> bool:
    return shutil.which(cc) is not None


@dataclass
class Verdict:
    """Outcome of one oracle run."""

    #: 'ok' | 'divergence' | 'crash' | 'skip'
    status: str
    #: Engine (or check) that disagreed/crashed, '' for ok.
    engine: str = ""
    #: Human-readable detail of the disagreement or exception.
    detail: str = ""
    #: Stable bucket id for crash dedup: exception type + message
    #: prefix with numbers/names normalized out.
    bucket: str = ""
    #: Engines that actually executed.
    engines_run: tuple[str, ...] = ()
    #: Golden outputs (kept for reducers/tests; may be None on crash).
    golden: "list[object] | None" = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def interesting(self) -> bool:
        return self.status in ("divergence", "crash")

    def key(self) -> str:
        """Identity used by the reducer: a reduced candidate is
        interesting iff it reproduces the same key."""
        if self.status == "divergence":
            return f"divergence:{self.engine}"
        if self.status == "crash":
            return f"crash:{self.bucket}"
        return self.status


def _bucket(engine: str, exc: BaseException) -> str:
    """Stable crash-bucket id: exception type plus a normalized prefix
    of the message (identifiers and numbers blanked so the same defect
    with different variable names shares a bucket)."""
    text = str(exc)[:120]
    text = re.sub(r"'[^']*'", "'_'", text)
    text = re.sub(r"\d+(\.\d+)?", "#", text)
    return f"{engine}:{type(exc).__name__}:{text}"


# ----------------------------------------------------------------------
# Output comparison
# ----------------------------------------------------------------------


def _canon(value: object) -> np.ndarray:
    """Canonical 2-D complex128 array for comparison."""
    array = np.asarray(value)
    if array.ndim == 0:
        array = array.reshape(1, 1)
    elif array.ndim == 1:
        array = array.reshape(1, -1)
    return array.astype(np.complex128)


def compare_outputs(golden: list[object], candidate: list[object],
                    rtol: float) -> "str | None":
    """None when equivalent, else a description of the first mismatch."""
    if len(golden) != len(candidate):
        return (f"output arity differs: golden {len(golden)} vs "
                f"candidate {len(candidate)}")
    for index, (want, got) in enumerate(zip(golden, candidate)):
        a, b = _canon(want), _canon(got)
        if a.shape != b.shape:
            return (f"output {index}: shape {a.shape} vs {b.shape}")
        nan_a, nan_b = np.isnan(a), np.isnan(b)
        if not np.array_equal(nan_a, nan_b):
            return f"output {index}: NaN positions differ"
        mask = ~nan_a
        if not np.allclose(a[mask], b[mask], rtol=rtol,
                           atol=rtol, equal_nan=False):
            diff = np.abs(a[mask] - b[mask])
            worst = float(diff.max()) if diff.size else 0.0
            return (f"output {index}: max abs error {worst:.3e} "
                    f"exceeds rtol {rtol:.0e}")
    return None


def _program_dtype(program: GeneratedProgram) -> str:
    if any(spec[0] == "single" for spec in program.param_specs):
        return "single"
    if "single(" in program.source:
        return "single"
    return "double"


# ----------------------------------------------------------------------
# Metamorphic transform: desugar matrix column iteration
# ----------------------------------------------------------------------


def _desugar_matrix_for(program: ast.Program) -> "ast.Program | None":
    """Rewrite ``for v = M`` (matrix iterable) into an index-based loop
    ``for __j = 1:size(M, 2); v = M(:, __j); ...``.  Returns None when
    nothing was rewritten.  MATLAB semantics make the two forms
    equivalent; a divergence means column binding is broken (e.g. the
    loop variable aliasing the iterated matrix)."""
    span = Span.unknown()
    changed = False

    def walk(stmts: list[ast.Stmt]) -> list[ast.Stmt]:
        nonlocal changed
        out: list[ast.Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, ast.For):
                body = walk(stmt.body)
                if isinstance(stmt.iterable, ast.Identifier):
                    changed = True
                    j = f"__fz_{stmt.var}_j"
                    bind = ast.Assign(
                        span=span,
                        target=ast.Identifier(span=span, name=stmt.var),
                        value=ast.CallIndex(
                            span=span, target=stmt.iterable,
                            args=[ast.ColonAll(span=span),
                                  ast.Identifier(span=span, name=j)]))
                    out.append(ast.For(
                        span=span, var=j,
                        iterable=ast.Range(
                            span=span,
                            start=ast.NumberLit(span=span, value=1.0),
                            stop=ast.CallIndex(
                                span=span,
                                target=ast.Identifier(span=span,
                                                      name="size"),
                                args=[stmt.iterable,
                                      ast.NumberLit(span=span,
                                                    value=2.0)])),
                        body=[bind] + body))
                else:
                    out.append(ast.For(span=stmt.span, var=stmt.var,
                                       iterable=stmt.iterable, body=body))
            elif isinstance(stmt, ast.While):
                out.append(ast.While(span=stmt.span,
                                     condition=stmt.condition,
                                     body=walk(stmt.body)))
            elif isinstance(stmt, ast.If):
                out.append(ast.If(
                    span=stmt.span,
                    branches=[(cond, walk(body))
                              for cond, body in stmt.branches],
                    else_body=walk(stmt.else_body)))
            elif isinstance(stmt, ast.Switch):
                out.append(ast.Switch(
                    span=stmt.span, subject=stmt.subject,
                    cases=[(match, walk(body))
                           for match, body in stmt.cases],
                    otherwise=walk(stmt.otherwise)))
            else:
                out.append(stmt)
        return out

    functions = [ast.Function(span=f.span, name=f.name, params=f.params,
                              returns=f.returns, body=walk(f.body))
                 for f in program.functions]
    if not changed:
        return None
    return ast.Program(span=program.span, functions=functions,
                       script=program.script)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


#: gcc-engine harnesses: ``"native"`` = in-process ``.so`` dispatch
#: (compile once per program), ``"exec"`` = per-call main()-wrapper
#: executable with printf/stdout output parsing.
GCC_HARNESSES = ("native", "exec")


class DifferentialOracle:
    """Runs programs through every engine and compares the results."""

    def __init__(self, engines: "tuple[str, ...] | list[str]" = None,
                 processor: str = "vliw_simd_dsp", cc: str = "gcc",
                 harness: str = "native"):
        if engines is None:
            engines = list(COMPILE_ENGINES)
        engines = [e for e in engines
                   if e != "gcc" or have_gcc(cc)]
        if harness not in GCC_HARNESSES:
            raise ValueError(
                f"unknown gcc harness {harness!r}; expected one of "
                f"{GCC_HARNESSES}")
        self.engines = tuple(engines)
        self.processor = processor
        self.cc = cc
        self.harness = harness

    # -- public ---------------------------------------------------------

    def run(self, program: GeneratedProgram) -> Verdict:
        session = obs_trace.current()
        session.counter("fuzz.programs")
        if program.mode == "interp":
            verdict = self._run_interp_mode(program)
        else:
            verdict = self._run_compile_mode(program)
        session.counter(f"fuzz.{verdict.status}")
        if verdict.interesting:
            session.event("fuzz.verdict", status=verdict.status,
                          engine=verdict.engine, bucket=verdict.bucket)
        return verdict

    def run_points(self, program: GeneratedProgram,
                   points: "list[list[object]]") -> "list[Verdict]":
        """Judge one compile-mode program on several input points.

        The translation unit is compiled **once** and every execution
        artifact (compiled-closure program, native ``.so``) is reused
        across points — with the default native harness that means one
        compiler invocation for the whole point set, not one per oracle
        call.  Returns one verdict per point, stopping early at the
        first interesting one.
        """
        session = obs_trace.current()
        session.counter("fuzz.programs")
        try:
            result = compile_source(
                program.source, args=program.arg_specs(),
                entry=program.entry, processor=self.processor,
                options=CompilerOptions(), use_cache=False)
        except UnsupportedFeatureError as exc:
            return [Verdict(status="skip", engine="compile",
                            detail=str(exc))]
        except Exception as exc:
            return [Verdict(status="crash", engine="compile",
                            detail=f"{type(exc).__name__}: {exc}",
                            bucket=_bucket("compile", exc))]
        verdicts: list[Verdict] = []
        for inputs in points:
            verdict = self._judge_point(result, program, inputs)
            verdicts.append(verdict)
            session.counter(f"fuzz.{verdict.status}")
            if verdict.interesting:
                break
        return verdicts

    def _judge_point(self, result, program: GeneratedProgram,
                     inputs: "list[object]",
                     golden: "list[object] | None" = None) -> Verdict:
        """Compare every engine against the interpreter on one point."""
        session = obs_trace.current()
        if golden is None:
            t0 = time.perf_counter()
            try:
                golden = MatlabInterpreter(program.source).call(
                    program.entry, list(inputs), nargout=program.nargout)
            except Exception as exc:
                return Verdict(status="crash", engine="interp",
                               detail=f"{type(exc).__name__}: {exc}",
                               bucket=_bucket("interp", exc))
            session.observe("fuzz.engine.interp_s",
                            time.perf_counter() - t0)
        dtype = _program_dtype(program)
        ran: list[str] = ["interp"]
        for engine in self.engines:
            t0 = time.perf_counter()
            try:
                outputs = self._run_engine(result, engine, list(inputs))
            except Exception as exc:
                return Verdict(status="crash", engine=engine,
                               detail=f"{type(exc).__name__}: {exc}",
                               bucket=_bucket(engine, exc),
                               engines_run=tuple(ran), golden=golden)
            session.observe(f"fuzz.engine.{engine}_s",
                            time.perf_counter() - t0)
            ran.append(engine)
            path = "gcc" if engine == "gcc" else "sim"
            rtol = _TOLERANCE[(dtype, path)]
            mismatch = compare_outputs(golden, outputs, rtol)
            if mismatch is not None:
                return Verdict(status="divergence", engine=engine,
                               detail=mismatch, engines_run=tuple(ran),
                               golden=golden)
        return Verdict(status="ok", engines_run=tuple(ran),
                       golden=golden)

    # -- compile mode ---------------------------------------------------

    def _golden(self, program: GeneratedProgram) -> list[object]:
        interp = MatlabInterpreter(program.source)
        return interp.call(program.entry, program.inputs(),
                           nargout=program.nargout)

    def _run_compile_mode(self, program: GeneratedProgram) -> Verdict:
        try:
            golden = self._golden(program)
        except Exception as exc:
            return Verdict(status="crash", engine="interp",
                           detail=f"{type(exc).__name__}: {exc}",
                           bucket=_bucket("interp", exc))

        try:
            result = compile_source(
                program.source, args=program.arg_specs(),
                entry=program.entry, processor=self.processor,
                options=CompilerOptions(), use_cache=False)
        except UnsupportedFeatureError as exc:
            return Verdict(status="skip", engine="compile",
                           detail=str(exc), golden=golden)
        except Exception as exc:
            return Verdict(status="crash", engine="compile",
                           detail=f"{type(exc).__name__}: {exc}",
                           bucket=_bucket("compile", exc), golden=golden)

        return self._judge_point(result, program, program.inputs(),
                                 golden=golden)

    def _run_engine(self, result, engine: str,
                    inputs: "list[object]") -> "list[object]":
        """The outputs of one engine's run."""
        if engine == "gcc":
            if self.harness == "exec":
                from repro.backend.harness import run_via_gcc
                return run_via_gcc(result, inputs, cc=self.cc)
            return result.native_program(cc=self.cc).run(inputs).outputs
        return result.simulate(inputs, backend=engine).outputs

    # -- interpreter-only mode ------------------------------------------

    def _run_interp_mode(self, program: GeneratedProgram) -> Verdict:
        # Warnings escalated to errors: numpy flags the silent value
        # corruption class (ComplexWarning for complex-into-float
        # stores, overflow/invalid casts) that plain comparison between
        # two identical interpreter runs can never see.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                golden = self._golden(program)
        except Warning as exc:
            return Verdict(status="divergence", engine="interp-warn",
                           detail=f"{type(exc).__name__}: {exc}",
                           bucket=_bucket("interp-warn", exc))
        except Exception as exc:
            return Verdict(status="crash", engine="interp",
                           detail=f"{type(exc).__name__}: {exc}",
                           bucket=_bucket("interp", exc))

        # Determinism: a second run must be bit-identical.
        second = self._golden(program)
        mismatch = compare_outputs(golden, second, rtol=0.0)
        if mismatch is not None:
            return Verdict(status="divergence", engine="interp-rerun",
                           detail=mismatch, golden=golden)

        # Metamorphic: matrix-for desugared to explicit column indexing
        # must agree exactly (same numpy ops in the same order).
        desugared = _desugar_matrix_for(parse(program.source))
        if desugared is not None:
            try:
                alt = MatlabInterpreter(to_source(desugared)).call(
                    program.entry, program.inputs(),
                    nargout=program.nargout)
            except Exception as exc:
                return Verdict(status="crash", engine="interp-desugar",
                               detail=f"{type(exc).__name__}: {exc}",
                               bucket=_bucket("interp-desugar", exc),
                               golden=golden)
            mismatch = compare_outputs(golden, alt, rtol=0.0)
            if mismatch is not None:
                return Verdict(status="divergence",
                               engine="interp-desugar", detail=mismatch,
                               golden=golden)
        return Verdict(status="ok", engines_run=("interp",),
                       golden=golden)
