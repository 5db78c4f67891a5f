"""The IR's child-field tables and the traversals they drive.

``ir.EXPR_FIELDS`` and ``ir.STMT_FIELDS`` name every node class's child
fields; ``walk_expr``, ``statement_exprs``, the rewriters and
``ir.clone`` all read them.  These tests check that the tables cover
every node class and field, that the table-driven walks visit exactly
what a hand-written recursion visits over the whole benchmark corpus,
that ``ir.clone`` copies structure while sharing immutable leaves, and
that the lowered IR is a tree.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.asip.model import Instruction
from repro.compiler import CompilerOptions, arg, compile_source
from repro.fuzz.reducer import load_reproducer
from repro.frontend.parser import parse
from repro.frontend.source import SourceFile
from repro.ir import nodes as ir
from repro.ir.builder import lower_program
from repro.ir.types import F64, ArrayType, ScalarType, VectorType
from repro.semantics.inference import specialize_program

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from workloads import default_workloads  # noqa: E402

KERNELS = {kernel.name: kernel for kernel in default_workloads()}
CORPUS = Path(__file__).parent / "fuzz_corpus"


def _subclasses(base: type) -> set[type]:
    found: set[type] = set()
    stack = [base]
    while stack:
        for sub in stack.pop().__subclasses__():
            found.add(sub)
            stack.append(sub)
    return found


def _corpus_bodies(kernel_name: str):
    """(label, statement list) of one kernel's lowered and optimized IR."""
    kernel = KERNELS[kernel_name]
    return _program_bodies(kernel.source, kernel.entry, kernel.arg_types)


def _program_bodies(source: str, entry: str, args: list):
    """(label, statement list) of one program's lowered and optimized
    IR."""
    program = parse(source, "<string>")
    sprog = specialize_program(program, entry, list(args),
                               SourceFile(source, "<string>"))
    for mode in ("naive", "fused"):
        for func in lower_program(sprog, mode=mode).functions:
            yield f"lowered/{mode}/{func.name}", func.body
    for processor in ("vliw_simd_dsp", "wide_simd_dsp"):
        result = compile_source(source, args, entry=entry,
                                processor=processor,
                                options=CompilerOptions(), use_cache=False)
        for func in result.module.functions:
            yield f"optimized/{processor}/{func.name}", func.body


#: Bodies building the statements no kernel does: break, continue,
#: return and disp.
_CONTROL_BODIES = (
    "for k = 1:8\n  if x(k) > 0\n    break;\n  end\n  y = y + x(k);\nend\n",
    "for k = 1:8\n  if x(k) > 0\n    continue;\n  end\n"
    "  y = y + x(k);\nend\n",
    "if x(1) > 0\n  return;\nend\ny = x(2);\n",
    "disp(x(1));\n",
)


# ----------------------------------------------------------------------
# The tables
# ----------------------------------------------------------------------


def test_every_node_class_has_a_table_entry():
    assert set(ir.EXPR_FIELDS) == _subclasses(ir.Expr)
    assert set(ir.STMT_FIELDS) == _subclasses(ir.Stmt)


def test_every_node_class_occurs_in_the_corpus():
    # A class no program builds is vocabulary every pass must still
    # handle for nothing.
    programs = [(k.source, k.entry, k.arg_types) for k in KERNELS.values()]
    programs += [(f"function y = f(x)\ny = 0;\n{body}end\n", "f",
                  [arg((1, 8))]) for body in _CONTROL_BODIES]
    seen: set[type] = set()
    for source, entry, args in programs:
        for _, body in _program_bodies(source, entry, args):
            for stmt in ir.walk_statements(body):
                seen.add(type(stmt))
                for expr in ir.statement_exprs(stmt):
                    seen.update(type(node) for node in ir.walk_expr(expr))
    missing = {**ir.EXPR_FIELDS, **ir.STMT_FIELDS}.keys() - seen
    assert not missing, sorted(cls.__name__ for cls in missing)


def _node_valued(annotation: str) -> bool:
    return any(word in annotation
               for word in ("Expr", "Stmt", "list["))


@pytest.mark.parametrize("cls", sorted(
    {**ir.EXPR_FIELDS, **ir.STMT_FIELDS}, key=lambda c: c.__name__),
    ids=lambda c: c.__name__)
def test_table_lists_exactly_the_node_valued_fields(cls):
    table = {**ir.EXPR_FIELDS, **ir.STMT_FIELDS}[cls]
    fields = {f.name: str(f.type) for f in dataclasses.fields(cls)}
    assert set(table) <= set(fields), "table names a field the class lacks"
    assert set(table) == {name for name, annotation in fields.items()
                          if _node_valued(annotation)}
    for name in table:
        annotation = fields[name]
        assert isinstance(name, (ir.Many, ir.Block)) == \
            annotation.startswith("list[")
        assert isinstance(name, ir.Block) == (annotation == "list[Stmt]")


@pytest.mark.parametrize("cls", sorted(ir.STMT_FIELDS,
                                       key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_block_fields_are_the_substatements(cls):
    stmt = cls()
    blocks = [getattr(stmt, name) for name in ir.STMT_FIELDS[cls]
              if isinstance(name, ir.Block)]
    assert [id(body) for body in stmt.substatements()] == \
        [id(body) for body in blocks]


# ----------------------------------------------------------------------
# Walks against a reference recursion
# ----------------------------------------------------------------------


def _reference_children(expr: ir.Expr) -> list:
    if isinstance(expr, ir.BinOp):
        return [expr.left, expr.right]
    if isinstance(expr, (ir.UnOp, ir.Cast)):
        return [expr.operand]
    if isinstance(expr, (ir.MathCall, ir.IntrinsicCall)):
        return list(expr.args)
    if isinstance(expr, ir.MakeComplex):
        return [expr.real, expr.imag]
    if isinstance(expr, ir.Load):
        return [expr.index]
    if isinstance(expr, ir.VecLoad):
        return [expr.base]
    return []


def _reference_walk(expr: ir.Expr):
    yield expr
    for child in _reference_children(expr):
        if child is not None:
            yield from _reference_walk(child)


def _reference_statement_exprs(stmt: ir.Stmt) -> list:
    if isinstance(stmt, ir.AssignVar):
        return [stmt.value]
    if isinstance(stmt, ir.Store):
        return [stmt.index, stmt.value]
    if isinstance(stmt, ir.VecStore):
        return [stmt.base, stmt.value]
    if isinstance(stmt, ir.ForRange):
        return [stmt.start, stmt.stop]
    if isinstance(stmt, (ir.While, ir.If)):
        return [stmt.condition]
    if isinstance(stmt, (ir.Call, ir.Emit)):
        return [a for a in stmt.args if isinstance(a, ir.Expr)]
    return []


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_walks_match_a_reference_recursion(kernel_name):
    nodes = 0
    for label, body in _corpus_bodies(kernel_name):
        for stmt in ir.walk_statements(body):
            exprs = ir.statement_exprs(stmt)
            assert [id(e) for e in exprs] == \
                [id(e) for e in _reference_statement_exprs(stmt)], label
            for expr in exprs:
                order = ir.walk_expr(expr)
                assert [id(n) for n in order] == \
                    [id(n) for n in _reference_walk(expr)], label
                nodes += len(order)
    assert nodes


def test_walk_expr_orders_list_children_left_to_right():
    a, b, c = (ir.VarRef(F64, name) for name in "abc")
    call = ir.MathCall(F64, name="atan2",
                       args=[ir.UnOp(F64, op="neg", operand=a), b])
    tree = ir.BinOp(F64, op="add", left=call, right=c)
    assert [getattr(n, "name", type(n).__name__)
            for n in ir.walk_expr(tree)] == \
        ["BinOp", "atan2", "UnOp", "a", "b", "c"]


# ----------------------------------------------------------------------
# ir.clone
# ----------------------------------------------------------------------


def _assert_structural_copy(original, copy, seen: dict) -> None:
    if isinstance(original, list):
        assert isinstance(copy, list) and copy is not original
        assert len(copy) == len(original)
        for old, new in zip(original, copy):
            _assert_structural_copy(old, new, seen)
    elif isinstance(original, (ir.Expr, ir.Stmt)):
        assert type(copy) is type(original) and copy is not original
        # The same attributes, ``line`` included wherever it was set.
        assert vars(copy).keys() == vars(original).keys()
        for name, value in vars(original).items():
            _assert_structural_copy(value, getattr(copy, name), seen)
        seen["nodes"] += 1
        if isinstance(original, ir.Stmt) and original.line:
            seen["lines"] += 1
    else:
        assert copy is original  # immutable leaves are shared
        if isinstance(original, (ScalarType, VectorType, ArrayType)):
            seen["types"] += 1
        elif isinstance(original, Instruction):
            seen["instructions"] += 1


def _check_clone(kernel_name: str) -> dict:
    seen = {"nodes": 0, "lines": 0, "types": 0, "instructions": 0}
    for label, body in _corpus_bodies(kernel_name):
        copy = ir.clone(body)
        assert copy == body, label
        _assert_structural_copy(body, copy, seen)
        # No node reached through the copy belongs to the original.
        originals = {id(n) for s in ir.walk_statements(body)
                     for e in ir.statement_exprs(s) for n in ir.walk_expr(e)}
        originals.update(id(s) for s in ir.walk_statements(body))
        assert not any(id(s) in originals
                       for s in ir.walk_statements(copy))
        assert not any(id(n) in originals
                       for s in ir.walk_statements(copy)
                       for e in ir.statement_exprs(s)
                       for n in ir.walk_expr(e))
    return seen


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_clone_copies_structure_and_shares_leaves(kernel_name):
    seen = _check_clone(kernel_name)
    assert seen["nodes"] and seen["lines"] and seen["types"]


def test_clone_shares_the_instructions_of_vectorized_code():
    assert _check_clone("fir")["instructions"] > 0


def test_clone_copies_call_name_lists_and_single_nodes():
    call = ir.Call(callee="g", args=[ir.VarRef(F64, "x"), "arr"],
                   results=["y"])
    call.line = 7
    copy = ir.clone(call)
    assert copy == call and copy.line == 7
    assert copy.args is not call.args and copy.results is not call.results
    assert copy.args[0] is not call.args[0] and copy.args[1] == "arr"
    expr = ir.Load(F64, array="a", index=call.args[0])
    assert ir.clone(expr) == expr and ir.clone(expr).index is not expr.index


# ----------------------------------------------------------------------
# The lowered IR is a tree
# ----------------------------------------------------------------------


def _lowering_programs():
    """(label, source, entry, args) of the ten kernels and the
    compile-mode fuzz corpus."""
    for kernel in KERNELS.values():
        yield kernel.name, kernel.source, kernel.entry, kernel.arg_types
    for path in sorted(CORPUS.glob("*.m")):
        program, _ = load_reproducer(CORPUS, path.stem)
        if program.mode == "compile":
            yield path.stem, program.source, program.entry, \
                program.arg_specs()


def test_lowered_ir_shares_no_node():
    # The in-place rewriters (pattern selection, renaming, folding)
    # visit a node once per parent; a node with two parents would take
    # an edit meant for one of them in both.
    programs = 0
    for label, source, entry, args in _lowering_programs():
        sprog = specialize_program(parse(source, "<string>"), entry,
                                   list(args), SourceFile(source, "<string>"))
        for mode in ("naive", "fused"):
            seen: set[int] = set()
            for func in lower_program(sprog, mode=mode).functions:
                for stmt in ir.walk_statements(func.body):
                    assert id(stmt) not in seen, (label, mode, stmt)
                    seen.add(id(stmt))
                    for expr in ir.statement_exprs(stmt):
                        for node in ir.walk_expr(expr):
                            assert id(node) not in seen, \
                                (label, mode, func.name, stmt.line, node)
                            seen.add(id(node))
        programs += 1
    assert programs > len(KERNELS)
