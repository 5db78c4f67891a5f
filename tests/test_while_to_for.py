"""The counted-``while`` rewrite (``ir/passes/while_to_for.py``).

One test per refusal, and the accepted shapes checked against the
interpreter in the simulator (optimized and baseline) and through gcc.
A refused loop stays a ``while``; its outputs are checked too wherever
it terminates.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import check_program
from repro.compiler import CompilerOptions, arg, compile_source
from repro.ir import nodes as ir
from repro.ir.passes.while_to_for import WhileToFor

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from workloads import workload_by_name  # noqa: E402

X8 = np.array([[1.5, -2.0, 3.0, 0.25, -4.0, 6.0, 7.5, -1.0]])


def _rewrites(source: str, args, inputs: list, nargout: int = 1) -> int:
    """How many loops the pass rewrote in the optimized build, after
    checking both builds and gcc against the interpreter."""
    optimized, _ = check_program(source, args, inputs, nargout=nargout,
                                 tol=1e-12, with_gcc=True)
    return optimized.pass_stats.get("while-to-for", 0)


def _loop(body: str, outputs: str = "s", setup: str = "i = 1;") -> str:
    return (f"function [{outputs}] = f(x)\ns = 0;\n{setup}\n{body}\nend\n")


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------

REFUSED = {
    "counter-written-elsewhere": _loop(
        "while i <= 8\n  s = s + x(i);\n  i = i + 1;\n  i = i + 1;\nend"),
    "break": _loop(
        "while i <= 8\n  if x(i) < -3\n    break;\n  end\n"
        "  s = s + x(i);\n  i = i + 1;\nend"),
    # The continue belongs to the inner loop; the rule is any depth.
    "continue": _loop(
        "while i <= 4\n  for j = 1:2\n    if x(j) < 0\n      continue;\n"
        "    end\n    s = s + x(j) * i;\n  end\n  i = i + 1;\nend"),
    "non-integral-step": _loop(
        "while i <= 4\n  s = s + i;\n  i = i + 0.5;\nend", "s, i"),
    "non-integral-double-bound": _loop(
        "while i > -1.5\n  s = s + x(i + 3) * i;\n  i = i - 1;\nend",
        "s, i", "i = 2;"),
    # Counting down against an upper bound: zero trips here, an endless
    # loop whenever the test holds at entry.
    "step-sign-never-reaches-bound": _loop(
        "while i <= 3\n  s = s + 1;\n  i = i - 1;\nend", "s, i", "i = 5;"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_loop_stays_a_while(name):
    source = REFUSED[name]
    nargout = source.split("]")[0].count(",") + 1
    assert _rewrites(source, [arg((1, 8))], [X8], nargout) == 0


BOUND_LOOP = """function [s, i] = f(x, n)
s = 0;
i = 1;
while i <= n
  s = s + x(i);
WRITE  i = i + 1;
end
end
"""


@pytest.mark.parametrize("write, expected", [("", 1), ("  n = n - 1;\n", 0)],
                         ids=["bound-read-only", "bound-written-in-body"])
def test_integer_bound_the_body_writes_is_refused(write, expected):
    source = BOUND_LOOP.replace("WRITE", write)
    args = [arg((1, 8)), arg(dtype="int16")]
    for n in (8, 0):
        assert _rewrites(source, args, [X8, np.int16(n)], 2) == expected


# ----------------------------------------------------------------------
# Accepted shapes
# ----------------------------------------------------------------------

COUNT_DOWN = """function [s, i] = f(x)
s = 0;
i = 3;
while i >= -2
  s = s + x(i + 3) * i;
  i = i - 1;
end
end
"""

EXIT_VALUE = """function [s, t] = f(x)
s = 0;
k = 1;
while k < 6
  s = s + x(k);
  k = k + 2;
end
t = k * 10;
end
"""

RUNTIME_BOUND = """function [s, k] = f(x, n)
s = 0;
k = 1;
while k <= n
  s = s + x(k) * k;
  k = k + 3;
end
end
"""


def test_counting_down_through_zero():
    assert _rewrites(COUNT_DOWN, [arg((1, 8))], [X8], 2) == 1


def test_exit_value_read_after_the_loop():
    assert _rewrites(EXIT_VALUE, [arg((1, 8))], [X8], 2) == 1


@pytest.mark.parametrize("n", [7, 8, 0, -5])
def test_runtime_integer_bound_and_its_exit_value(n):
    # k exits at 1 + 3 * trips, trips floor((n - 1) / 3) + 1 or 0.
    args = [arg((1, 8)), arg(dtype="int16")]
    assert _rewrites(RUNTIME_BOUND, args, [X8, np.int16(n)], 2) == 1


def test_int32_bound_is_refused():
    # The stop n + 1 and the exit value could leave I32 at intmax.
    args = [arg((1, 8)), arg(dtype="int32")]
    assert _rewrites(RUNTIME_BOUND, args, [X8, np.int32(7)], 2) == 0


def test_rewritten_loop_reads_the_counter():
    result = compile_source(EXIT_VALUE, args=[arg((1, 8))], use_cache=False,
                            options=CompilerOptions(simd=False))
    func = result.module.entry_function
    loops = [s for s in ir.walk_statements(func.body)
             if isinstance(s, (ir.While, ir.ForRange))]
    assert [type(loop) for loop in loops] == [ir.ForRange]
    loop = loops[0]
    assert (loop.start.value, loop.stop.value, loop.step) == (1, 6, 2)
    # The increment is gone; k = 7 is assigned after the loop.
    assert all(not (isinstance(s, ir.AssignVar) and s.name == "k")
               for s in ir.walk_statements(loop.body))


def test_function_without_a_while_is_left_alone():
    result = compile_source("function y = f(x)\ny = x + 1;\nend\n",
                            args=[arg((1, 8))], use_cache=False)
    func = result.module.entry_function
    assert WhileToFor().run(func) is False


@pytest.mark.parametrize("name", ["qr_gs", "bf_weights"])
def test_kernel_counting_loops_become_vectorized_for_loops(name):
    workload = workload_by_name(name)
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry, use_cache=False)
    assert result.pass_stats["while-to-for"] >= 1
    assert not [r for r in result.remarks
                if "while loops are not vectorized" in r.message]
