"""The slice-forwarding pass and the dead-code escape walk it leans on.

A gathered slice temporary ``T`` is forwarded (its one read turned into
a read of the source in place) only under the rules listed in
``repro.ir.passes.slice_forwarding``; each refusal below breaks exactly
one of them on an otherwise forwardable function.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import check_program
from repro.compiler import compile_source
from repro.fuzz.reducer import load_reproducer
from repro.ir import nodes as ir
from repro.ir.passes import dce as dce_module
from repro.ir.passes.dce import DeadCodeElimination
from repro.ir.passes.slice_forwarding import SliceForwarding, _copy_store
from repro.ir.printer import format_expr, format_function
from repro.ir.types import I32, ArrayType, ScalarKind, ScalarType

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from workloads import workload_by_name  # noqa: E402

CORPUS = Path(__file__).parent / "fuzz_corpus"
F64 = ScalarType(ScalarKind.F64)
MATRIX = ArrayType(F64, 3, 4)
ROW = ArrayType(F64, 1, 4)


def var(name: str) -> ir.VarRef:
    return ir.VarRef(I32, name)


def const(value: int) -> ir.Const:
    return ir.Const(I32, value)


def loop(name: str, stop: int, *body: ir.Stmt) -> ir.ForRange:
    return ir.ForRange(name, const(0), const(stop), 1, list(body))


def gather(temp: str = "t", source: str = "a", row: int = 1) -> ir.ForRange:
    """``for j in 0..4: for i in 0..1: temp[i + j*1] = source[row +
    j*3]``: the lowerer's copy of ``source(row + 1, :)``."""
    index = ir.BinOp(I32, "add", var("i"),
                     ir.BinOp(I32, "mul", var("j"), const(1)))
    value = ir.Load(F64, source, ir.BinOp(
        I32, "add", const(row), ir.BinOp(I32, "mul", var("j"), const(3))))
    return loop("j", 4, loop("i", 1, ir.Store(temp, index, value)))


def consume(read: ir.Expr | None = None, stop: int = 4) -> ir.ForRange:
    """``for k in 0..stop: y[k] = read * 2``, ``read`` being ``t[k]``
    unless given."""
    read = read if read is not None else ir.Load(F64, "t", var("k"))
    return loop("k", stop, ir.Store(
        "y", var("k"), ir.BinOp(F64, "mul", read, ir.Const(F64, 2.0))))


def function(*body: ir.Stmt, outputs=("y",), **extra) -> ir.IRFunction:
    local_types = {"t": ROW, "j": I32, "i": I32, "k": I32, **extra}
    for name in outputs:
        local_types.pop(name, None)
    return ir.IRFunction(
        name="f", params=[ir.Param("a", MATRIX)],
        outputs=[ir.Param(name, ROW, True) for name in outputs],
        locals=local_types, body=list(body))


def test_forwards_the_single_read_and_dce_deletes_the_copy():
    func = function(gather(), consume())
    assert SliceForwarding().run(func)
    store = func.body[1].body[0]
    assert format_expr(store.value.left) == "a[(1 add (k mul 3))]"
    assert not SliceForwarding().run(func)
    # One DCE run deletes the nest, the temporary and the nest's
    # induction variables, which nothing else reads.
    DeadCodeElimination().run(func)
    assert len(func.body) == 1
    assert not {"t", "i", "j"} & set(func.locals)


def test_forwards_a_range_copy_without_the_trip_one_loop():
    nest = gather()
    nest.body = [nest.body[0].body[0]]
    nest.body[0].index = var("j")
    func = function(nest, consume())
    assert SliceForwarding().run(func)


def _refused(func: ir.IRFunction) -> None:
    before = format_function(func)
    assert not SliceForwarding().run(func)
    assert format_function(func) == before


def test_refuses_when_the_source_is_written():
    write = ir.Store("a", const(0), ir.Const(F64, 1.0))
    _refused(function(gather(), write, consume()))


def test_refuses_a_temporary_that_is_an_output():
    _refused(function(gather(temp="t"), consume(), outputs=("y", "t")))


def test_refuses_a_temporary_read_twice():
    twice = ir.BinOp(F64, "add", ir.Load(F64, "t", var("k")),
                     ir.Load(F64, "t", var("k")))
    _refused(function(gather(), consume(twice)))


def test_refuses_a_read_at_a_non_induction_index():
    shifted = ir.Load(F64, "t", ir.BinOp(I32, "add", var("k"), const(0)))
    _refused(function(gather(), consume(shifted)))
    # ``n`` holds a valid index but is no loop's induction variable.
    read_n = ir.Store("y", const(0), ir.Load(F64, "t", var("n")))
    _refused(function(gather(), ir.AssignVar("n", const(2)), read_n,
                      n=I32))
    # A loop over fewer elements than the copy is not the copy's range.
    _refused(function(gather(), consume(stop=3)))


def test_refuses_an_induction_variable_assigned_in_the_body():
    body = consume()
    body.body.insert(0, ir.AssignVar("k", const(0)))
    _refused(function(gather(), body))


def test_refuses_a_temporary_read_before_the_copy():
    _refused(function(consume(), gather()))


def test_refuses_a_temporary_passed_to_a_call_or_copied():
    call = ir.Call("g", ["t"], ["z"])
    _refused(function(gather(), call, consume(), z=ROW))
    copy = ir.CopyArray("u", "t")
    _refused(function(gather(), copy, consume(), u=ROW))


def test_refuses_a_temporary_written_twice():
    again = ir.Store("t", const(0), ir.Const(F64, 0.0))
    _refused(function(gather(), again, consume()))


def test_refuses_a_source_index_reading_a_written_scalar():
    nest = gather()
    nest.body[0].body[0].value.index.left = var("r")
    _refused(function(ir.AssignVar("r", const(1)), nest, consume(), r=I32))


def _inv3x3(processor: str = "vliw_simd_dsp"):
    workload = workload_by_name("inv3x3")
    return workload, compile_source(workload.source, workload.arg_types,
                                    entry=workload.entry,
                                    processor=processor, use_cache=False)


def test_inv3x3_reads_every_row_slice_in_place():
    _, result = _inv3x3()
    func = result.module.entry_function
    for stmt in ir.walk_statements(func.body):
        store = _copy_store(stmt)
        assert store is None or store.array not in func.locals, \
            format_function(func)
    forwarded = [r for r in result.remarks
                 if r.pass_name == "slice-forwarding"]
    assert len(forwarded) == 39
    assert all(r.kind == "passed" for r in forwarded)


def test_inv3x3_outputs_hold():
    workload, result = _inv3x3()
    inputs = workload.inputs(seed=3)
    run = result.simulate(inputs)
    np.testing.assert_allclose(run.outputs[0], workload.golden(inputs),
                               rtol=0, atol=workload.tolerance)


@pytest.mark.parametrize("name, fixed", [
    # Without the write after the copy, the slice is read in place.
    ("slice_source_written", ("  m(2, 1) = 7;\n", "")),
    # With a single read of ``x``, its slice is read in place.
    ("slice_read_twice", ("x .* x", "x .* 2")),
])
def test_corpus_refusals_keep_their_copies(name, fixed):
    program, _ = load_reproducer(CORPUS, name)

    def forwarded(source):
        result = compile_source(source, program.arg_specs(),
                                entry=program.entry, use_cache=False)
        return [r for r in result.remarks
                if r.pass_name == "slice-forwarding"]

    assert forwarded(program.source) == []
    assert len(forwarded(program.source.replace(*fixed))) == 1
    check_program(program.source, program.arg_specs(), program.inputs(),
                  entry=program.entry, with_gcc=True)


def test_dce_escape_walk_does_not_grow_with_the_loops_that_die(
        monkeypatch):
    """Each dead loop's escape walk visits only the top-level
    statements that read its variable, however many loops die."""
    visited = []
    real = dce_module.read_outside_loop

    def counting(body, loop_, name):
        visited.append(len(list(ir.walk_statements(body))))
        return real(body, loop_, name)

    monkeypatch.setattr(dce_module, "read_outside_loop", counting)
    for count in (4, 40):
        visited.clear()
        dead = [loop(f"k{n}", 4, ir.Store(f"tmp{n}", var(f"k{n}"),
                                          ir.Const(F64, 0.0)))
                for n in range(count)]
        live = [ir.Store("y", const(n % 4), ir.Const(F64, float(n)))
                for n in range(50)]
        func = ir.IRFunction(
            name="t", outputs=[ir.Param("y", ROW, True)],
            locals={**{f"k{n}": I32 for n in range(count)},
                    **{f"tmp{n}": ROW for n in range(count)}},
            body=dead + live)
        DeadCodeElimination().run(func)
        assert func.body == live
        assert visited == [2] * count
