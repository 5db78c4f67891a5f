"""Unit tests for the IR optimization passes.

Each pass is tested both structurally (the rewrite happened) and
semantically (simulated results are unchanged), using small MATLAB
programs lowered through the real pipeline.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.asip.isa_library import generic_scalar_dsp
from repro.frontend.parser import parse
from repro.ir import nodes as ir
from repro.ir.builder import lower_program
from repro.ir.passes import dce as dce_module
from repro.ir.passes.constant_folding import ConstantFolding
from repro.ir.passes.cse import CommonSubexpressionElimination
from repro.ir.passes.dce import DeadCodeElimination
from repro.ir.passes.licm import LoopInvariantCodeMotion
from repro.ir.passes.loop_fusion import LoopFusion
from repro.ir.passes.manager import PassManager, cleanup_pipeline, \
    standard_pipeline
from repro.ir.passes.propagation import ConstantPropagation
from repro.ir.printer import format_module
from repro.ir.types import I32, ArrayType, ScalarKind, ScalarType
from repro.ir.verifier import verify_module
from repro.semantics.inference import specialize_program
from repro.semantics.shapes import Shape
from repro.semantics.types import DType, MType
from repro.sim.compiled import CompiledProgram

F64 = ScalarType(ScalarKind.F64)


def build(source: str, entry: str, args):
    sprog = specialize_program(parse(source), entry, args)
    return lower_program(sprog, mode="fused")


def row(n: int) -> MType:
    return MType(DType.DOUBLE, False, Shape(1, n))


def run_module(module, inputs):
    return CompiledProgram(module, generic_scalar_dsp()).run(list(inputs))


def assert_semantics_preserved(source, entry, args, inputs, pipeline):
    reference = build(source, entry, args)
    optimized = build(source, entry, args)
    pipeline.run(optimized)
    verify_module(optimized)
    ref_out = run_module(reference, inputs).outputs
    opt_out = run_module(optimized, inputs).outputs
    for expected, actual in zip(ref_out, opt_out):
        assert np.allclose(np.asarray(actual), np.asarray(expected))
    return optimized


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------


def fold_expr(expr: ir.Expr) -> ir.Expr:
    func = ir.IRFunction(name="t", locals={"v": F64, "i": I32},
                         body=[ir.AssignVar("v", expr)])
    ConstantFolding().run(func)
    return func.body[0].value


def test_fold_constant_arithmetic():
    expr = ir.BinOp(F64, op="add", left=ir.Const(F64, 2.0),
                    right=ir.Const(F64, 3.0))
    assert fold_expr(expr).value == 5.0


def test_fold_add_zero_identity():
    expr = ir.BinOp(F64, op="add", left=ir.VarRef(F64, "v"),
                    right=ir.Const(F64, 0.0))
    folded = fold_expr(expr)
    assert isinstance(folded, ir.VarRef)


def test_fold_mul_one_identity():
    expr = ir.BinOp(F64, op="mul", left=ir.Const(F64, 1.0),
                    right=ir.VarRef(F64, "v"))
    assert isinstance(fold_expr(expr), ir.VarRef)


def test_no_mul_zero_fold_for_floats():
    # 0 * NaN must stay NaN, so x*0 is not folded for floats.
    expr = ir.BinOp(F64, op="mul", left=ir.VarRef(F64, "v"),
                    right=ir.Const(F64, 0.0))
    assert isinstance(fold_expr(expr), ir.BinOp)


def test_mul_zero_folds_for_integers():
    expr = ir.BinOp(I32, op="mul", left=ir.VarRef(I32, "i"),
                    right=ir.Const(I32, 0))
    func = ir.IRFunction(name="t", locals={"i": I32, "o": I32},
                         body=[ir.AssignVar("o", expr)])
    ConstantFolding().run(func)
    assert isinstance(func.body[0].value, ir.Const)


def test_cast_roundtrip_removed():
    inner = ir.Cast(F64, operand=ir.VarRef(I32, "i"))
    expr = ir.Cast(I32, operand=inner)
    func = ir.IRFunction(name="t", locals={"i": I32, "o": I32},
                         body=[ir.AssignVar("o", expr)])
    ConstantFolding().run(func)
    assert isinstance(func.body[0].value, ir.VarRef)


def test_cast_narrowing_of_index_arithmetic():
    # cast<i32>(cast<f64>(i) + 1.0) -> i + 1
    inner = ir.BinOp(F64, op="add",
                     left=ir.Cast(F64, operand=ir.VarRef(I32, "i")),
                     right=ir.Const(F64, 1.0))
    expr = ir.Cast(I32, operand=inner)
    func = ir.IRFunction(name="t", locals={"i": I32, "o": I32},
                         body=[ir.AssignVar("o", expr)])
    ConstantFolding().run(func)
    value = func.body[0].value
    assert isinstance(value, ir.BinOp) and value.type == I32


def test_reassociation_of_integer_offsets():
    # (i + 2) - 1 -> i + 1
    expr = ir.BinOp(I32, op="sub",
                    left=ir.BinOp(I32, op="add", left=ir.VarRef(I32, "i"),
                                  right=ir.Const(I32, 2)),
                    right=ir.Const(I32, 1))
    func = ir.IRFunction(name="t", locals={"i": I32, "o": I32},
                         body=[ir.AssignVar("o", expr)])
    ConstantFolding().run(func)
    value = func.body[0].value
    assert isinstance(value, ir.BinOp)
    assert isinstance(value.right, ir.Const) and value.right.value == 1


def test_dead_if_branch_removed():
    stmt = ir.If(condition=ir.Const(ScalarType(ScalarKind.BOOL), False),
                 then_body=[ir.AssignVar("v", ir.Const(F64, 1.0))],
                 else_body=[ir.AssignVar("v", ir.Const(F64, 2.0))])
    func = ir.IRFunction(name="t", locals={"v": F64}, body=[stmt])
    ConstantFolding().run(func)
    assert isinstance(func.body[0], ir.AssignVar)
    assert func.body[0].value.value == 2.0


def test_zero_trip_loop_removed():
    loop = ir.ForRange(var="i", start=ir.Const(I32, 5),
                       stop=ir.Const(I32, 5), step=1,
                       body=[ir.AssignVar("v", ir.Const(F64, 1.0))])
    func = ir.IRFunction(name="t", locals={"v": F64, "i": I32}, body=[loop])
    ConstantFolding().run(func)
    assert func.body == []


def test_fold_comparison_to_bool():
    expr = ir.BinOp(ScalarType(ScalarKind.BOOL), op="lt",
                    left=ir.Const(F64, 1.0), right=ir.Const(F64, 2.0))
    func = ir.IRFunction(name="t", locals={"b": ScalarType(ScalarKind.BOOL)},
                         body=[ir.AssignVar("b", expr)])
    ConstantFolding().run(func)
    assert func.body[0].value.value is True


def test_double_negation_removed():
    expr = ir.UnOp(F64, op="neg",
                   operand=ir.UnOp(F64, op="neg",
                                   operand=ir.VarRef(F64, "v")))
    assert isinstance(fold_expr(expr), ir.VarRef)


def test_math_call_folding():
    expr = ir.MathCall(F64, name="sqrt", args=[ir.Const(F64, 16.0)])
    assert fold_expr(expr).value == 4.0


# ----------------------------------------------------------------------
# Constant propagation
# ----------------------------------------------------------------------


def test_propagation_through_straight_line():
    src = "function y = f(x)\nn = 3;\nm = n + 1;\ny = x * m;\nend"
    module = build(src, "f", [MType.double()])
    PassManager([ConstantPropagation(), ConstantFolding()]).run(module)
    text = format_module(module)
    assert "4.0" in text


def test_propagation_killed_by_loop_assignment():
    src = """
function y = f(x)
s = 1;
for k = 1:3
    s = s * x;
end
y = s;
end
"""
    assert_semantics_preserved(src, "f", [MType.double()], [2.0],
                               PassManager([ConstantPropagation(),
                                            ConstantFolding()]))


def test_while_condition_not_constant_folded():
    # Regression: substituting the pre-loop constant into a while
    # condition whose variable the body changes caused out-of-bounds
    # butterfly indices in the FFT.
    src = """
function y = f(x)
n = 1;
y = 0;
while n < x
    y = y + n;
    n = n * 2;
end
end
"""
    assert_semantics_preserved(src, "f", [MType.double()], [100.0],
                               PassManager([ConstantPropagation(),
                                            ConstantFolding()]))


def test_propagation_branch_kill():
    src = """
function y = f(c)
v = 5;
if c > 0
    v = 6;
end
y = v;
end
"""
    module = assert_semantics_preserved(
        src, "f", [MType.double()], [1.0],
        PassManager([ConstantPropagation(), ConstantFolding()]))
    # v after the if must NOT have been replaced by 5.
    result = run_module(module, [1.0]).outputs[0]
    assert result == 6.0


# ----------------------------------------------------------------------
# DCE
# ----------------------------------------------------------------------


def test_dce_removes_dead_scalar():
    src = "function y = f(x)\ndead = x * 3;\ny = x + 1;\nend"
    module = build(src, "f", [MType.double()])
    DeadCodeElimination().run(module.functions[0])
    text = format_module(module)
    assert "dead" not in text


def test_dce_removes_dead_array_loop():
    src = """
function y = f(x)
tmp = zeros(1, 4);
for k = 1:4
    tmp(k) = x;
end
y = x;
end
"""
    module = build(src, "f", [MType.double()])
    PassManager([DeadCodeElimination()]).run(module)
    loops = [s for s in ir.walk_statements(module.entry_function.body)
             if isinstance(s, ir.ForRange)]
    assert loops == []
    assert "tmp" not in module.entry_function.locals


def test_dce_keeps_outputs_and_emits():
    src = "function y = f(x)\ny = x;\nfprintf('hi\\n');\nend"
    module = build(src, "f", [MType.double()])
    DeadCodeElimination().run(module.functions[0])
    assert any(isinstance(s, ir.Emit)
               for s in ir.walk_statements(module.entry_function.body))


def test_dce_iterates_through_chains():
    src = "function y = f(x)\na = x + 1;\nb = a * 2;\nc = b - 3;\ny = x;\nend"
    module = build(src, "f", [MType.double()])
    PassManager([DeadCodeElimination()]).run(module)
    assigns = [s for s in ir.walk_statements(module.entry_function.body)
               if isinstance(s, ir.AssignVar)]
    assert len(assigns) == 1  # only y


def _dead_loop_then(*later: ir.Stmt) -> ir.IRFunction:
    """``for k in 0..4: tmp[k] = 0`` with ``tmp`` never read, followed
    by ``later``; ``y`` is the function's scalar output."""
    k = ir.VarRef(I32, "k")
    dead = ir.ForRange("k", ir.Const(I32, 0), ir.Const(I32, 4), 1,
                       [ir.Store("tmp", k, ir.Const(F64, 0.0))])
    return ir.IRFunction(name="t", outputs=[ir.Param("y", I32, True)],
                         locals={"k": I32, "tmp": ArrayType(F64, 1, 4)},
                         body=[dead, *later])


def _loops_left(func: ir.IRFunction) -> int:
    DeadCodeElimination().run(func)
    return sum(isinstance(s, ir.ForRange)
               for s in ir.walk_statements(func.body))


def test_dce_keeps_dead_loop_whose_induction_var_is_read_after():
    func = _dead_loop_then(ir.AssignVar("y", ir.VarRef(I32, "k")))
    assert _loops_left(func) == 1


def test_dce_ignores_reads_inside_a_loop_rebinding_the_var():
    k = ir.VarRef(I32, "k")
    rebind = ir.ForRange("k", ir.Const(I32, 0), ir.Const(I32, 3), 1,
                         [ir.AssignVar("y", k)])
    func = _dead_loop_then(rebind)
    assert _loops_left(func) == 1
    assert func.body == [rebind]


def test_dce_counts_reads_in_the_bounds_of_a_rebinding_loop():
    k = ir.VarRef(I32, "k")
    rebind = ir.ForRange("k", ir.Const(I32, 0), ir.VarRef(I32, "k"), 1,
                         [ir.AssignVar("y", k)])
    assert _loops_left(_dead_loop_then(rebind)) == 2


def test_dce_runs_escape_walk_only_for_loops_with_all_writes_dead(
        monkeypatch):
    calls = []
    real = dce_module.read_outside_loop

    def counting(body, loop, name):
        calls.append(loop)
        return real(body, loop, name)

    monkeypatch.setattr(dce_module, "read_outside_loop", counting)
    k = ir.VarRef(I32, "k")
    live = [ir.ForRange("k", ir.Const(I32, 0), ir.Const(I32, 4), 1,
                        [ir.Store("y", k, ir.Const(F64, float(n)))])
            for n in range(200)]
    func = ir.IRFunction(name="t",
                         outputs=[ir.Param("y", ArrayType(F64, 1, 4), True)],
                         locals={"k": I32}, body=live)
    assert _loops_left(func) == 200
    assert calls == []
    # The one loop whose writes are all dead is the one that is walked.
    dead = _dead_loop_then()
    assert _loops_left(dead) == 0
    assert len(calls) == 1


# ----------------------------------------------------------------------
# CSE
# ----------------------------------------------------------------------


def test_cse_dedups_repeated_index():
    i = ir.VarRef(I32, "i")
    index = ir.BinOp(I32, op="add", left=i, right=ir.Const(I32, 4))
    load = ir.Load(F64, array="a", index=index)
    index2 = ir.BinOp(I32, op="add", left=ir.VarRef(I32, "i"),
                      right=ir.Const(I32, 4))
    store = ir.Store(array="a", index=index2,
                     value=ir.BinOp(F64, op="add", left=load,
                                    right=ir.Const(F64, 1.0)))
    func = ir.IRFunction(
        name="t", locals={"i": I32},
        body=[store])
    func.declare("a", None)  # replaced below with a proper array type
    from repro.ir.types import ArrayType
    func.locals["a"] = ArrayType(F64, 1, 16)
    changed = CommonSubexpressionElimination().run(func)
    assert changed
    assert isinstance(func.body[0], ir.AssignVar)  # the cse temp
    assert func.body[0].name.startswith("cse")


def test_cse_semantics_on_matmul():
    src = "function C = f(A, B)\nC = A * B;\nend"
    args = [MType(DType.DOUBLE, False, Shape(3, 3)),
            MType(DType.DOUBLE, False, Shape(3, 3))]
    a = np.arange(9.0).reshape(3, 3)
    b = np.arange(9.0, 18.0).reshape(3, 3)
    module = assert_semantics_preserved(
        "function C = f(A, B)\nC = A * B;\nend", "f", args, [a, b],
        cleanup_pipeline())


def test_cse_does_not_touch_loads():
    # Loads are not CSE candidates (stores could intervene).
    from repro.ir.types import ArrayType
    load1 = ir.Load(F64, array="a", index=ir.Const(I32, 0))
    load2 = ir.Load(F64, array="a", index=ir.Const(I32, 0))
    value = ir.BinOp(F64, op="add", left=load1, right=load2)
    func = ir.IRFunction(name="t",
                         locals={"v": F64, "a": ArrayType(F64, 1, 4)},
                         body=[ir.AssignVar("v", value)])
    CommonSubexpressionElimination().run(func)
    assert isinstance(func.body[0].value, ir.BinOp)


_QR_GS_C = """
import sys
from pathlib import Path
from repro.compiler import arg, compile_source
source = Path(sys.argv[1]).read_text()
sys.stdout.write(compile_source(source, [arg((12, 12))], entry="qr_gs",
                                processor="vliw_simd_dsp",
                                use_cache=False).c_source())
"""


def test_cse_temporaries_do_not_depend_on_hash_seed():
    # CSE numbers its temporaries while walking the repeated
    # subexpressions; walking a set made qr_gs's C differ between
    # processes with different string hash seeds.
    source = Path(__file__).parent.parent / "examples" / "mlab" / "qr_gs.m"
    outputs = []
    for hash_seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        outputs.append(subprocess.run(
            [sys.executable, "-c", _QR_GS_C, str(source)], env=env,
            check=True, capture_output=True, text=True).stdout)
    assert "cse" in outputs[0]
    assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# LICM
# ----------------------------------------------------------------------


def test_licm_hoists_invariant_prefix():
    body = [
        ir.AssignVar("inv", ir.BinOp(F64, op="mul",
                                     left=ir.VarRef(F64, "x"),
                                     right=ir.Const(F64, 2.0))),
        ir.AssignVar("acc", ir.BinOp(F64, op="add",
                                     left=ir.VarRef(F64, "acc"),
                                     right=ir.VarRef(F64, "inv"))),
    ]
    loop = ir.ForRange(var="i", start=ir.Const(I32, 0),
                       stop=ir.Const(I32, 8), step=1, body=body)
    func = ir.IRFunction(name="t",
                         locals={"i": I32, "x": F64, "inv": F64,
                                 "acc": F64},
                         body=[ir.AssignVar("acc", ir.Const(F64, 0.0)),
                               loop])
    assert LoopInvariantCodeMotion().run(func)
    assert isinstance(func.body[1], ir.AssignVar)
    assert func.body[1].name == "inv"
    assert len(loop.body) == 1


def test_licm_skips_possibly_zero_trip_loops():
    body = [ir.AssignVar("inv", ir.Const(F64, 1.0))]
    loop = ir.ForRange(var="i", start=ir.Const(I32, 0),
                       stop=ir.VarRef(I32, "n"), step=1, body=list(body))
    func = ir.IRFunction(name="t", locals={"i": I32, "n": I32, "inv": F64},
                         body=[loop])
    assert not LoopInvariantCodeMotion().run(func)


def test_licm_skips_variant_values():
    body = [ir.AssignVar("v", ir.Cast(F64, operand=ir.VarRef(I32, "i")))]
    loop = ir.ForRange(var="i", start=ir.Const(I32, 0),
                       stop=ir.Const(I32, 8), step=1, body=list(body))
    func = ir.IRFunction(name="t", locals={"i": I32, "v": F64}, body=[loop])
    assert not LoopInvariantCodeMotion().run(func)


# ----------------------------------------------------------------------
# Loop fusion
# ----------------------------------------------------------------------


def test_fusion_of_elementwise_chain():
    src = """
function y = f(a, b)
t = a .* b;
y = t + a;
end
"""
    module = build(src, "f", [row(8), row(8)])
    PassManager([LoopFusion()]).run(module)
    loops = [s for s in ir.walk_statements(module.entry_function.body)
             if isinstance(s, ir.ForRange)]
    assert len(loops) == 1


def test_fusion_semantics():
    src = """
function y = f(a, b)
t = a .* b;
u = t + a;
y = u ./ 2;
end
"""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1, 8))
    b = rng.standard_normal((1, 8))
    assert_semantics_preserved(src, "f", [row(8), row(8)], [a, b],
                               PassManager([LoopFusion()]))


def test_fusion_rejects_different_bounds():
    src = """
function [y, z] = f(a, b)
y = a + 1;
z = b + 1;
end
"""
    module = build(src, "f", [row(8), row(5)])
    changed = LoopFusion().run(module.entry_function)
    assert not changed


def test_fusion_rejects_scalar_flow():
    # Loop 1 computes a scalar the second loop reads: order matters.
    body1 = [ir.AssignVar("s", ir.Load(F64, array="a",
                                       index=ir.VarRef(I32, "i")))]
    body2 = [ir.Store(array="b", index=ir.VarRef(I32, "j"),
                      value=ir.VarRef(F64, "s"))]
    from repro.ir.types import ArrayType
    loop1 = ir.ForRange(var="i", start=ir.Const(I32, 0),
                        stop=ir.Const(I32, 4), step=1, body=body1)
    loop2 = ir.ForRange(var="j", start=ir.Const(I32, 0),
                        stop=ir.Const(I32, 4), step=1, body=body2)
    func = ir.IRFunction(name="t",
                         locals={"i": I32, "j": I32, "s": F64,
                                 "a": ArrayType(F64, 1, 4),
                                 "b": ArrayType(F64, 1, 4)},
                         body=[loop1, loop2])
    assert not LoopFusion().run(func)


def test_fusion_rejects_offset_dependence():
    # Loop 2 reads a[i+1] which loop 1 writes: not element-wise aligned.
    from repro.ir.types import ArrayType
    loop1 = ir.ForRange(
        var="i", start=ir.Const(I32, 0), stop=ir.Const(I32, 4), step=1,
        body=[ir.Store(array="a", index=ir.VarRef(I32, "i"),
                       value=ir.Const(F64, 1.0))])
    shifted = ir.BinOp(I32, op="add", left=ir.VarRef(I32, "j"),
                       right=ir.Const(I32, 1))
    loop2 = ir.ForRange(
        var="j", start=ir.Const(I32, 0), stop=ir.Const(I32, 4), step=1,
        body=[ir.Store(array="b", index=ir.VarRef(I32, "j"),
                       value=ir.Load(F64, array="a", index=shifted))])
    func = ir.IRFunction(name="t",
                         locals={"i": I32, "j": I32,
                                 "a": ArrayType(F64, 1, 8),
                                 "b": ArrayType(F64, 1, 8)},
                         body=[loop1, loop2])
    assert not LoopFusion().run(func)


# ----------------------------------------------------------------------
# Whole pipelines
# ----------------------------------------------------------------------


def test_standard_pipeline_preserves_fir():
    src = (Path := __import__("pathlib").Path)(
        "examples/mlab/fir.m").read_text()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 32))
    h = rng.standard_normal((1, 8))
    assert_semantics_preserved(src, "fir", [row(32), row(8)], [x, h],
                               standard_pipeline())


def test_pass_manager_reports_stats():
    src = "function y = f(x)\nn = 1 + 1;\ny = x * n;\nend"
    module = build(src, "f", [MType.double()])
    stats = standard_pipeline().run(module)
    assert stats  # at least one pass did something


def test_licm_does_not_hoist_self_accumulation():
    """Regression: acc = acc + invariant inside a loop is NOT invariant
    (hoisting it collapsed pure scalar accumulation loops)."""
    src = """
function acc = f(v)
acc = 0;
for k = 1:3
    acc = acc + v / 3;
end
end
"""
    module = assert_semantics_preserved(src, "f", [MType.double()], [3.0],
                                        standard_pipeline())
    assert abs(run_module(module, [3.0]).outputs[0] - 3.0) < 1e-12


# ----------------------------------------------------------------------
# Pass manager: the fixpoint stop rule
# ----------------------------------------------------------------------

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from workloads import default_workloads  # noqa: E402


def _inlined(kernel) -> ir.IRModule:
    """A benchmark kernel lowered and inlined, ready for the pipelines."""
    from repro.ir.passes.inline import FunctionInlining
    module = build(kernel.source, kernel.entry, list(kernel.arg_types))
    FunctionInlining().run_module(module)
    return module


class _Counting:
    """Wraps a pass and logs each of its runs."""

    def __init__(self, inner, runs: list):
        self.inner, self.name, self.runs = inner, inner.name, runs

    def run(self, func: ir.IRFunction) -> bool:
        self.runs.append(self.name)
        return self.inner.run(func)


def _whole_rounds(passes, module: ir.IRModule, max_rounds: int = 8):
    """Reference stop rule: whole rounds until a round changes nothing.
    Returns the stats ``PassManager.run`` reports and the runs made."""
    stats: dict[str, int] = {}
    runs = 0
    for func in module.functions:
        rounds = 0
        for _ in range(max_rounds):
            rounds += 1
            changed = False
            for pass_ in passes:
                runs += 1
                if pass_.run(func):
                    changed = True
                    stats[pass_.name] = stats.get(pass_.name, 0) + 1
            if not changed:
                break
        stats[f"rounds[{func.name}]"] = rounds
    return stats, runs


def test_pipeline_output_is_a_fixpoint_of_every_pass():
    from repro.compiler import compile_source
    for kernel in default_workloads():
        module = _inlined(kernel)
        standard_pipeline().run(module)
        for func in module.functions:
            for pass_ in standard_pipeline().passes:
                assert not pass_.run(func), (kernel.name, pass_.name)
        result = compile_source(kernel.source, kernel.arg_types,
                                entry=kernel.entry,
                                processor="vliw_simd_dsp", use_cache=False)
        for func in result.module.functions:
            for pass_ in cleanup_pipeline().passes:
                assert not pass_.run(func), (kernel.name, pass_.name)


def test_fixpoint_skips_the_rest_of_the_clean_round_with_equal_stats():
    saved = 0
    for pipeline in (standard_pipeline, cleanup_pipeline):
        for kernel in default_workloads():
            reference = _inlined(kernel)
            ref_stats, ref_runs = _whole_rounds(pipeline().passes,
                                                reference)
            module = _inlined(kernel)
            runs: list[str] = []
            manager = pipeline()
            manager.passes = [_Counting(p, runs) for p in manager.passes]
            assert manager.run(module) == ref_stats, kernel.name
            assert format_module(module) == format_module(reference)
            assert len(runs) <= ref_runs
            saved += ref_runs - len(runs)
    assert saved > 0


class _Countdown:
    """A pass that reports a change on its first ``times`` runs."""

    def __init__(self, name: str, times: int):
        self.name, self.left, self.runs = name, times, 0

    def run(self, func: ir.IRFunction) -> bool:
        self.runs += 1
        self.left -= 1
        return self.left >= 0


def _one_function() -> ir.IRModule:
    return ir.IRModule(functions=[ir.IRFunction(name="t")], entry="t")


def test_fixpoint_stops_mid_round_once_every_pass_saw_the_ir():
    first, second = _Countdown("a", 2), _Countdown("b", 0)
    stats = PassManager([first, second]).run(_one_function())
    assert stats == {"a": 2, "rounds[t]": 3}
    # Whole rounds would run b a third time on IR it has already seen.
    assert (first.runs, second.runs) == (3, 2)


def test_fixpoint_reruns_the_pass_that_changed_last():
    first, second = _Countdown("a", 0), _Countdown("b", 1)
    stats = PassManager([first, second]).run(_one_function())
    assert stats == {"b": 1, "rounds[t]": 2}
    assert (first.runs, second.runs) == (2, 2)


def test_fixpoint_bound_and_empty_pipeline_keep_their_round_counts():
    restless, quiet = _Countdown("a", 100), _Countdown("b", 0)
    stats = PassManager([restless, quiet], max_rounds=3).run(
        _one_function())
    assert stats == {"a": 3, "rounds[t]": 3}
    assert (restless.runs, quiet.runs) == (3, 3)
    assert PassManager([]).run(_one_function()) == {"rounds[t]": 1}


def _fields(body: list[ir.Stmt]):
    """(node, field, value) of every child and list field in ``body``."""
    for stmt in ir.walk_statements(body):
        for name in ir.STMT_FIELDS[type(stmt)]:
            if not isinstance(name, ir.Block):
                yield stmt, name, getattr(stmt, name)
        for expr in ir.statement_exprs(stmt):
            for node in ir.walk_expr(expr):
                for name in ir.EXPR_FIELDS[type(node)]:
                    yield node, name, getattr(node, name)


def test_identity_rewrite_writes_nothing_back():
    from repro.ir.passes.rewrite import rewrite_tree
    lists = 0
    for kernel in default_workloads():
        module = _inlined(kernel)
        for func in module.functions:
            before = list(_fields(func.body))
            lists += sum(isinstance(name, ir.Many) for _, name, _ in before)
            rewrite_tree(func.body, lambda expr: expr)
            for node, name, value in before:
                assert getattr(node, name) is value, (kernel.name, name)
    assert lists > 0


def test_rewrite_rebuilds_only_the_list_that_changed():
    from repro.ir.passes.rewrite import rewrite_stmt_exprs
    f64 = ScalarType(ScalarKind.F64)
    one, two = ir.Const(f64, 1.0), ir.Const(f64, 2.0)
    inner = ir.MathCall(f64, name="atan2", args=[one, two])
    stmt = ir.Emit(format="%g %g", args=[inner, ir.Const(f64, 3.0)])
    args, inner_args = stmt.args, inner.args

    def double_two(expr):
        return ir.Const(f64, 4.0) if expr is two else expr

    rewrite_stmt_exprs(stmt, double_two)
    assert stmt.args is args and stmt.args[0] is inner
    assert inner.args is not inner_args
    assert [a.value for a in inner.args] == [1.0, 4.0]


def test_folding_keeps_a_narrowing_round_trip():
    # cast<i32>(cast<i8>(k)) is not k: only a float in the middle keeps
    # every i32 value.
    i8 = ScalarType(ScalarKind.I8)
    for middle, folds in ((ScalarType(ScalarKind.F64), True), (i8, False)):
        func = ir.IRFunction(name="t", body=[ir.AssignVar("y", ir.Cast(
            I32, operand=ir.Cast(middle, operand=ir.VarRef(I32, "k"))))])
        ConstantFolding().run(func)
        assert isinstance(func.body[0].value, ir.VarRef) is folds
