"""Unit tests for SIMD vectorization and instruction selection."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.asip.isa_library import (
    generic_scalar_dsp,
    simd_dsp_with_width,
    vliw_simd_dsp,
    wide_simd_dsp,
)
from repro.compiler import CompilerOptions, arg, compile_source
from repro.errors import UnsupportedFeatureError
from repro.fuzz.reducer import load_reproducer
from repro.ir import nodes as ir
from repro.ir.passes.rewrite import read_outside_loop
from repro.ir.verifier import verify_module
from repro.mlab.interp import MatlabInterpreter
from repro.vectorize.simd import SimdVectorizer

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from workloads import default_workloads, workload_by_name  # noqa: E402
from helpers import HAVE_GCC  # noqa: E402

CORPUS = Path(__file__).parent / "fuzz_corpus"


def compiled(source, args, processor="vliw_simd_dsp", **kw):
    result = compile_source(source, args=args, processor=processor, **kw)
    verify_module(result.module)
    return result


def instructions_used(result, inputs) -> set:
    return set(result.simulate(list(inputs)).report.instruction_counts)


def assert_matches_golden(result, source, entry, inputs, tol=1e-9):
    golden = MatlabInterpreter(source).call(entry, list(inputs))
    run = result.simulate(list(inputs))
    assert np.allclose(np.asarray(run.outputs[0]),
                       np.asarray(golden[0]), atol=tol, rtol=tol)
    return run


SAXPY = """
function y = saxpy(a, x, b)
y = zeros(1, length(x));
for k = 1:length(x)
    y(k) = a * x(k) + b(k);
end
end
"""


def test_elementwise_loop_vectorizes():
    result = compiled(SAXPY, [arg((1, 1)), arg((1, 64)), arg((1, 64))])
    rng = np.random.default_rng(0)
    x, b = rng.standard_normal((1, 64)), rng.standard_normal((1, 64))
    used = instructions_used(result, [2.0, x, b])
    assert "vload_f64x4" in used
    assert "vstore_f64x4" in used
    assert_matches_golden(result, SAXPY, "saxpy", [2.0, x, b])


def test_tail_loop_handles_remainder():
    # 67 = 16*4 + 3: the tail must process 3 scalar iterations.
    result = compiled(SAXPY, [arg((1, 1)), arg((1, 67)), arg((1, 67))])
    rng = np.random.default_rng(1)
    x, b = rng.standard_normal((1, 67)), rng.standard_normal((1, 67))
    run = assert_matches_golden(result, SAXPY, "saxpy", [2.0, x, b])
    counts = run.report.instruction_counts
    # 16 vector chunks in the compute loop (the zeros-fill loop adds
    # its own stores, so count the multiplies).
    assert counts["vmul_f64x4"] == 16


def test_exact_multiple_has_no_tail_work():
    result = compiled(SAXPY, [arg((1, 1)), arg((1, 64)), arg((1, 64))])
    rng = np.random.default_rng(2)
    x, b = rng.standard_normal((1, 64)), rng.standard_normal((1, 64))
    run = assert_matches_golden(result, SAXPY, "saxpy", [2.0, x, b])
    assert run.report.instruction_counts["vmul_f64x4"] == 16


DOT = """
function s = dotk(a, b)
s = 0;
for k = 1:length(a)
    s = s + a(k) * b(k);
end
end
"""


def test_reduction_uses_vmac_and_vredadd():
    result = compiled(DOT, [arg((1, 64)), arg((1, 64))])
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((1, 64)), rng.standard_normal((1, 64))
    used = instructions_used(result, [a, b])
    assert "vmac_f64x4" in used
    assert "vredadd_f64x4" in used
    assert_matches_golden(result, DOT, "dotk", [a, b], tol=1e-9)


def test_reduction_without_vmac_uses_vadd():
    SUM = """
function s = total(a)
s = 0;
for k = 1:length(a)
    s = s + a(k);
end
end
"""
    result = compiled(SUM, [arg((1, 32))])
    a = np.arange(32.0).reshape(1, -1)
    used = instructions_used(result, [a])
    assert "vadd_f64x4" in used
    assert_matches_golden(result, SUM, "total", [a])


def test_reversed_access_uses_vloadr():
    REV = """
function y = rev(x)
n = length(x);
y = zeros(1, n);
for k = 1:n
    y(k) = x(n - k + 1);
end
end
"""
    result = compiled(REV, [arg((1, 32))])
    x = np.arange(32.0).reshape(1, -1)
    used = instructions_used(result, [x])
    assert "vloadr_f64x4" in used
    assert_matches_golden(result, REV, "rev", [x])


def test_invariant_scalar_is_splatted():
    result = compiled(SAXPY, [arg((1, 1)), arg((1, 32)), arg((1, 32))])
    rng = np.random.default_rng(4)
    x, b = rng.standard_normal((1, 32)), rng.standard_normal((1, 32))
    used = instructions_used(result, [3.0, x, b])
    assert "vsplat_f64x4" in used


def test_single_precision_picks_eight_lanes():
    result = compiled(SAXPY, [arg((1, 1), dtype="single"),
                              arg((1, 64), dtype="single"),
                              arg((1, 64), dtype="single")])
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 64)).astype(np.float32)
    b = rng.standard_normal((1, 64)).astype(np.float32)
    used = instructions_used(result, [2.0, x, b])
    assert "vstore_f32x8" in used


def test_width_fallback_for_short_trip_counts():
    # 12 iterations on a target with 8- and 4-lane f64: 4 lanes win
    # (three full chunks, no tail).
    processor = simd_dsp_with_width(8)
    result = compiled(SAXPY, [arg((1, 1)), arg((1, 12)), arg((1, 12))],
                      processor=processor)
    rng = np.random.default_rng(6)
    x, b = rng.standard_normal((1, 12)), rng.standard_normal((1, 12))
    used = instructions_used(result, [2.0, x, b])
    assert "vstore_f64x4" in used


def test_no_vectorization_on_scalar_target():
    result = compiled(SAXPY, [arg((1, 1)), arg((1, 64)), arg((1, 64))],
                      processor=generic_scalar_dsp())
    rng = np.random.default_rng(7)
    x, b = rng.standard_normal((1, 64)), rng.standard_normal((1, 64))
    used = instructions_used(result, [2.0, x, b])
    assert not any(name.startswith("vload") for name in used)
    assert_matches_golden(result, SAXPY, "saxpy", [2.0, x, b])


def test_loop_with_branch_stays_scalar():
    COND = """
function y = clip0(x)
y = zeros(1, length(x));
for k = 1:length(x)
    if x(k) > 0
        y(k) = x(k);
    end
end
end
"""
    result = compiled(COND, [arg((1, 32))])
    x = np.linspace(-1, 1, 32).reshape(1, -1)
    used = instructions_used(result, [x])
    assert not any("vmac" in n or "vmul" in n for n in used)
    assert_matches_golden(result, COND, "clip0", [x])


def test_strided_access_stays_scalar():
    STRIDED = """
function y = pick(x)
y = zeros(1, 16);
for k = 1:16
    y(k) = x(2 * k);
end
end
"""
    result = compiled(STRIDED, [arg((1, 32))])
    x = np.arange(32.0).reshape(1, -1)
    used = instructions_used(result, [x])
    assert not any(name.startswith("vload") for name in used)
    assert_matches_golden(result, STRIDED, "pick", [x])


INDEXED_LOOP = """
function y = f(x, z)
y = zeros(1, 48);
for i = 1:32
BODY
end
end
"""


def _indexed_loop(body):
    """Compile ``INDEXED_LOOP`` around ``body``; return the set of simd
    remark kinds on the loop after checking every build and engine
    against the interpreter."""
    source = INDEXED_LOOP.replace("BODY", body)
    args = [arg((1, 32)), arg((1, 64))]
    x = np.zeros((1, 32))
    x[0, :4] = [0, 8, 16, 0]
    z = np.arange(1.0, 65.0).reshape(1, 64)
    optimized = compiled(source, args, use_cache=False)
    baseline = compiled(source, args, options=CompilerOptions.baseline(),
                        use_cache=False)
    golden = np.asarray(MatlabInterpreter(source).call("f", [x, z])[0])
    for result in (optimized, baseline):
        for backend in ("compiled", "native") if HAVE_GCC else ("compiled",):
            run = result.simulate([x, z], backend=backend)
            np.testing.assert_array_equal(np.asarray(run.outputs[0]), golden)
    loop_line = source.splitlines().index("for i = 1:32") + 1
    return {r.kind for r in optimized.remarks
            if r.pass_name == "simd-vectorize" and r.line == loop_line}


@pytest.mark.parametrize("body", ["  k = x(i);\n  y(i) = z(i + k);",
                                  "  k = x(i);\n  y(i + k) = z(i);"],
                         ids=["load", "store"])
def test_index_reading_a_loop_written_scalar_stays_scalar(body):
    # Vectorized, both loops read ``k`` (a vector temporary there) as
    # if it were loop-invariant.
    assert _indexed_loop(body) == {"missed"}


@pytest.mark.parametrize("body", ["  y(i) = z(x(2) + i);",
                                  "  y(i + x(3)) = z(i);"],
                         ids=["load", "store"])
def test_index_reading_an_invariant_load_vectorizes(body):
    # ``x`` is not written in the loop, so ``x(2)`` is an invariant term.
    assert _indexed_loop(body) == {"passed"}


def test_live_out_loop_variable_blocks_vectorization():
    LIVE = """
function [y, last] = f(x)
y = zeros(1, 16);
for k = 1:16
    y(k) = x(k) * 2;
end
last = k;
end
"""
    result = compiled(LIVE, [arg((1, 16))])
    x = np.arange(16.0).reshape(1, -1)
    run = result.simulate([x])
    # Correctness of the live-out value matters more than vectorizing.
    assert run.outputs[1] == 16.0
    # The compute loop must stay scalar (only the zeros fill may have
    # been vectorized, and it has no multiplies).
    assert not any("vmul" in name or "vmac" in name
                   for name in run.report.instruction_counts)


def test_mixed_element_kinds_stay_scalar():
    MIXED = """
function y = f(x, z)
y = zeros(1, 16);
for k = 1:16
    y(k) = x(k) + real(z(k));
end
end
"""
    result = compiled(MIXED, [arg((1, 16)), arg((1, 16), complex=True)])
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 16))
    z = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
    used = instructions_used(result, [x, z])
    assert not any("vadd" in name or "vmul" in name for name in used)


def test_complex_simd_on_capable_target():
    CMUL = """
function y = cscale(x, w)
y = complex(zeros(1, length(x)), zeros(1, length(x)));
for k = 1:length(x)
    y(k) = x(k) * w(k);
end
end
"""
    result = compiled(CMUL, [arg((1, 32), complex=True),
                             arg((1, 32), complex=True)])
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 32)) + 1j * rng.standard_normal((1, 32))
    w = rng.standard_normal((1, 32)) + 1j * rng.standard_normal((1, 32))
    used = instructions_used(result, [x, w])
    assert "vmul_c128x2" in used
    assert_matches_golden(result, CMUL, "cscale", [x, w])


def test_conj_vectorizes_with_vconj():
    CC = """
function s = cdotk(a, b)
s = 0;
for k = 1:length(a)
    s = s + conj(a(k)) * b(k);
end
end
"""
    result = compiled(CC, [arg((1, 32), complex=True),
                           arg((1, 32), complex=True)])
    rng = np.random.default_rng(10)
    a = rng.standard_normal((1, 32)) + 1j * rng.standard_normal((1, 32))
    b = rng.standard_normal((1, 32)) + 1j * rng.standard_normal((1, 32))
    used = instructions_used(result, [a, b])
    assert "vconj_c128x2" in used
    assert "vmac_c128x2" in used
    assert_matches_golden(result, CC, "cdotk", [a, b], tol=1e-8)


def test_wider_target_uses_wider_lanes():
    result = compiled(SAXPY, [arg((1, 1)), arg((1, 64)), arg((1, 64))],
                      processor=wide_simd_dsp())
    rng = np.random.default_rng(11)
    x, b = rng.standard_normal((1, 64)), rng.standard_normal((1, 64))
    used = instructions_used(result, [2.0, x, b])
    assert "vstore_f64x8" in used


def test_simd_disabled_by_option():
    result = compiled(SAXPY, [arg((1, 1)), arg((1, 64)), arg((1, 64))],
                      options=CompilerOptions(simd=False))
    rng = np.random.default_rng(12)
    x, b = rng.standard_normal((1, 64)), rng.standard_normal((1, 64))
    used = instructions_used(result, [2.0, x, b])
    assert not any(name.startswith("vstore") for name in used)


def test_runtime_trip_count_strip_mined():
    RUNTIME = """
function s = headsum(x, m)
s = 0;
kmax = min(m, length(x));
for k = 1:kmax
    s = s + x(k);
end
end
"""
    result = compiled(RUNTIME, [arg((1, 64)), arg((1, 1))])
    x = np.arange(64.0).reshape(1, -1)
    for m in (1.0, 3.0, 4.0, 17.0, 64.0):
        golden = MatlabInterpreter(RUNTIME).call("headsum", [x, m])[0]
        run = result.simulate([x, m])
        assert np.allclose(run.outputs[0], np.asarray(golden))
    used = instructions_used(result, [x, 64.0])
    assert "vadd_f64x4" in used


def test_vectorized_modules_verify():
    for source, args in [
        (SAXPY, [arg((1, 1)), arg((1, 40)), arg((1, 40))]),
        (DOT, [arg((1, 40)), arg((1, 40))]),
    ]:
        result = compiled(source, args)
        verify_module(result.module)


def test_cached_loop_liveness_matches_the_whole_function_walk(monkeypatch):
    """Every liveness set the vectorizer builds from its cached reads
    answers each name exactly as ``read_outside_loop`` does at that
    moment (plus the function outputs, which the caller reads)."""
    checked: dict[str, int] = {}
    real = SimdVectorizer._read_outside

    def differential(self, loop, top):
        live = real(self, loop, top)
        func = self._func
        outputs = {p.name for p in func.outputs}
        names = set(live) | set(func.locals) | outputs
        names.update(node.name for stmt in ir.walk_statements(func.body)
                     for expr in ir.statement_exprs(stmt)
                     for node in ir.walk_expr(expr)
                     if isinstance(node, ir.VarRef))
        for name in names:
            expected = name in outputs or \
                read_outside_loop(func.body, loop, name)
            # ``label`` names the program the loop below is compiling.
            assert (name in live) == expected, (label, loop.line, name)
        checked[label] = checked.get(label, 0) + 1
        return live

    monkeypatch.setattr(SimdVectorizer, "_read_outside", differential)
    programs = [(k.name, k.source, k.arg_types, k.entry)
                for k in default_workloads()]
    # inv3x3 whose cofactor helper reads each row slice twice: slice
    # forwarding keeps every copy, so the entry function keeps the many
    # small vectorizable nests this check wants.
    inv3x3 = workload_by_name("inv3x3")
    twice = inv3x3.source.replace(
        "c = x .* y - z .* w;",
        "c = 0.5 .* (x .* y - z .* w) + 0.5 .* (y .* x - w .* z);")
    assert twice != inv3x3.source
    programs.append(("inv3x3_slices_read_twice", twice, inv3x3.arg_types,
                     inv3x3.entry))
    for path in sorted(CORPUS.glob("*.m")):
        program, _ = load_reproducer(CORPUS, path.stem)
        if program.mode == "compile":
            programs.append((path.stem, program.source,
                             program.arg_specs(), program.entry))
    for label, source, args, entry in programs:
        for processor in ("vliw_simd_dsp", "wide_simd_dsp"):
            try:
                compile_source(source, args, entry=entry,
                               processor=processor, use_cache=False)
            except UnsupportedFeatureError:
                continue
    assert checked["vectorizer_output_liveness"]
    assert checked["inv3x3_slices_read_twice"] > 10
