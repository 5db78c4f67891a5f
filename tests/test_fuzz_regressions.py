"""Regression tests for the golden-model bugs the differential fuzzer
caught.

Each test pins one fixed bug at the narrowest level that exhibits it
(unit where possible, differential `check_program` where the bug lived
in lowering/optimization).  The corresponding minimal reproducers live
in ``tests/fuzz_corpus/`` and are replayed through the full oracle by
``test_fuzz.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from pathlib import Path

from helpers import (HAVE_GCC, assert_outputs_close, check_program,
                     golden_outputs)
from repro import numeric
from repro.cache import CompilationCache
from repro.compiler import CompilerOptions, arg, compile_source
from repro.fuzz.reducer import load_reproducer
from repro.observe import TraceSession, trace as obs_trace

CORPUS = Path(__file__).parent / "fuzz_corpus"


# ---------------------------------------------------------------------------
# numeric.range_count: magnitude-relative colon fencepost (interpreter
# and compile-time shape inference share it)


def test_range_count_does_not_swallow_below_stop_gap():
    # 0:1:(5 - 1e-11) has a genuine below-integer quotient; the old
    # fixed epsilon absorbed it and produced a 6th element beyond stop.
    assert numeric.range_count(0.0, 1.0, 5.0 - 1e-11) == 5


def test_range_count_fractional_step_inclusive_stop():
    assert numeric.range_count(0.0, 0.1, 1.0) == 11


def test_range_count_large_magnitude_keeps_last_element():
    # Representation error scales with |start|/|step|; a fixed epsilon
    # loses the final element here.
    assert numeric.range_count(1e9, 1.0, 1e9 + 3.0) == 4


def test_range_count_degenerate_inputs():
    assert numeric.range_count(0.0, 0.0, 5.0) == 0
    assert numeric.range_count(0.0, 1.0, float("nan")) == 0
    assert numeric.range_count(5.0, 1.0, 0.0) == 0
    with pytest.raises(OverflowError):
        numeric.range_count(0.0, 1.0, float("inf"))


def test_range_fencepost_matches_between_compiler_and_interpreter():
    src = """function [n, m] = f()
  n = length(0:1:(5 - 1e-11));
  m = length(0:0.1:1);
end
"""
    _, outputs = check_program(src, args=[], inputs=[], nargout=2)
    assert float(np.asarray(outputs[0])) == 5.0
    assert float(np.asarray(outputs[1])) == 11.0


# ---------------------------------------------------------------------------
# Interpreter: matrix-column for iteration binds by value


def test_matrix_for_loop_var_is_a_copy():
    src = """function [s, a] = f()
  a = [1, 2; 3, 4];
  s = 0;
  for v = a
    v = v + 100;
    s = s + v(1) + v(2);
  end
end
"""
    s, a = golden_outputs(src, "f", [], nargout=2)
    assert np.asarray(s).item() == 1 + 3 + 2 + 4 + 400
    assert np.array_equal(np.asarray(a), [[1, 2], [3, 4]])


# ---------------------------------------------------------------------------
# Interpreter: growth-by-assignment preserves the promoted dtype


def test_growth_from_empty_keeps_complex_dtype():
    src = """function d = f()
  a = [];
  a(2) = 2i;
  d = imag(a(2));
end
"""
    (d,) = golden_outputs(src, "f", [], nargout=1)
    assert np.asarray(d).item() == 2.0


# ---------------------------------------------------------------------------
# Simulators: C pow semantics at the overflow edge


def test_c_pow_overflow_returns_inf():
    big = 1e300
    assert numeric.c_pow(big, 2.0) == float("inf")
    assert numeric.c_pow(-big, 3.0) == float("-inf")  # odd exponent
    assert numeric.c_pow(-big, 2.0) == float("inf")
    assert numeric.c_pow(0.0, -1.0) == float("inf")
    assert numeric.c_pow(big, 2) == float("inf")


def test_pow_overflow_agrees_across_engines():
    src = """function v = f(x)
  v = x;
  for k = 1:8
    v = v .^ 3;
  end
end
"""
    with np.errstate(over="ignore"):
        _, outputs = check_program(src, args=[arg()], inputs=[34.0])
    assert np.isinf(np.asarray(outputs[0])).all()


# ---------------------------------------------------------------------------
# Builder: whole-array assignment reading the destination


def test_matrix_literal_reading_own_destination():
    src = """function v = f(x)
  v = [x, 2, 3, 4];
  v = [v(2), v(1), v(4), v(3)];
end
"""
    _, outputs = check_program(src, args=[arg()], inputs=[1.0])
    assert np.array_equal(np.asarray(outputs[0]), [[2, 1, 4, 3]])


def test_shape_changing_reassignment_is_rejected():
    # `a = a'` on a non-square matrix changes a's dimensions, but the
    # compiler lays storage out once from the final type — lowering the
    # intermediate with the wrong leading dimension silently permutes
    # elements.  Outside the static-shape subset; must be a clean error.
    from repro.compiler import compile_source
    from repro.errors import UnsupportedFeatureError

    src = """function a = f(a)
  a = a';
  a = a';
end
"""
    with pytest.raises(UnsupportedFeatureError, match="shape"):
        compile_source(src, args=[arg((2, 3))], use_cache=False)


# ---------------------------------------------------------------------------
# Builder: complex storage read at a real-typed program point


def test_real_only_op_before_variable_turns_complex():
    src = """function w = f(c)
  v = -3;
  w = sign(v);
  if c > 0
    v = 2i;
  end
  w = w + real(v);
end
"""
    _, taken = check_program(src, args=[arg()], inputs=[2.0])
    assert float(np.asarray(taken[0])) == -1.0  # sign(-3) + real(2i)
    _, skipped = check_program(src, args=[arg()], inputs=[-2.0])
    assert float(np.asarray(skipped[0])) == -4.0  # sign(-3) + (-3)


# ---------------------------------------------------------------------------
# Builder: generated temporaries can never shadow source variables


def test_reduction_counter_does_not_shadow_user_loop_variable():
    # sum()'s lowered counter used to be named k<N>; with a user loop
    # variable of the same name the inner loop clobbered the outer one.
    src = """function v2 = f()
  v2 = 1;
  for k4 = 1:3
    v2 = (v2 .* k4) - sum(zeros(1, 3));
  end
end
"""
    _, outputs = check_program(src, args=[], inputs=[])
    assert float(np.asarray(outputs[0])) == 6.0


# ---------------------------------------------------------------------------
# Vectorizer: function outputs are live after every loop


def test_vectorizer_keeps_loop_writing_only_an_output():
    src = """function v1 = f(p0)
  v1 = 0;
  for k4 = 1:4
    v1 = p0(end - 4);
  end
end
"""
    x = np.array([[-0.0625], [-2.625], [-3.8125], [3.5], [1.0]])
    _, outputs = check_program(src, args=[arg((5, 1))], inputs=[x])
    assert float(np.asarray(outputs[0])) == -0.0625


# ---------------------------------------------------------------------------
# C emitter + host harness (exercised through gcc when available)


def test_complex_reduction_and_scalar_complex_param():
    src = """function s = f(z, a)
  s = sum(z) + a;
end
"""
    z = np.array([[1 + 2j, -0.5 + 0.25j, 3 - 1j, 1.5j]])
    a = np.array([[0.5 - 1.25j]])
    _, outputs = check_program(
        src, args=[arg((1, 4), complex=True), arg(complex=True)],
        inputs=[z, a], with_gcc=True)
    expected = complex(np.sum(z)) + complex(a[0, 0])
    assert np.allclose(np.asarray(outputs[0]), expected)


# ---------------------------------------------------------------------------
# Call results whose caller variable joined to another type


@pytest.mark.parametrize("inline", [True, False])
def test_call_result_converts_to_the_callers_joined_type(inline):
    # fuzz seed 1031: ``v4`` joins to single complex through a later
    # branch, so sf2's double complex r1 must be converted on the way
    # in; the same holds for a scalar result (``s``) and a single-output
    # call (``w``).  The C wrote c128 into c64 storage before.
    program, _ = load_reproducer(CORPUS, "multi_return_result_type_join")
    golden = golden_outputs(program.source, program.entry,
                            program.inputs(), program.nargout)
    result = compile_source(program.source, args=program.arg_specs(),
                            entry=program.entry,
                            options=CompilerOptions(inline=inline),
                            use_cache=False)
    runs = [result.simulate(program.inputs()).outputs]
    if HAVE_GCC:
        runs.append(result.native_program().run(program.inputs()).outputs)
    for outputs in runs:
        for index, expected in enumerate(golden):
            assert_outputs_close(outputs[index], expected, 1e-6,
                                 f"output #{index}")


# ---------------------------------------------------------------------------
# Cache: disk-layer failures are counted, not swallowed


def test_cache_disk_errors_surface_in_stats_and_counters(tmp_path):
    cache_dir = tmp_path / "cache"
    cache = CompilationCache(cache_dir=cache_dir)
    session = TraceSession()
    with obs_trace.use(session):
        # Corrupt entry: read fails, is counted, and behaves as a miss.
        corrupt = cache_dir / "de" / "deadbeef.pkl"
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_bytes(b"not a pickle")
        assert cache._disk_get("deadbeef") is None
        # Write failure: an unpicklable result.
        cache._disk_put("cafebabe", lambda: None)
    stats = cache.stats()
    assert stats["disk_read_errors"] == 1
    assert stats["disk_write_errors"] == 1
    assert session.metrics.counters.get("cache.disk_read_error") == 1
    assert session.metrics.counters.get("cache.disk_write_error") == 1
    assert any("disk cache" in r.message for r in session.remarks)
