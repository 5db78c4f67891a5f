"""Index analysis shared by the loop passes, after MLIR's affine dialect.

Every loop pass asks what scalars an expression reads
(:func:`scalar_reads`), how an index moves with the enclosing loops and
whether the loop can change it (:func:`affine`), and how many times a
loop runs (:func:`trip_count`).  Casts to ``i32``, ``f32`` and ``f64``
are taken to keep an index's value, as they do in the
``cast<i32>(cast<f64>(i) ...)`` chains the lowerer builds.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.ir import nodes as ir
from repro.ir.types import ScalarKind


def scalar_reads(expr: ir.Expr) -> set[str] | None:
    """The scalar names ``expr`` reads, or None when it reads an array
    or calls a custom instruction (a store could change its value)."""
    names: set[str] = set()
    for node in ir.walk_expr(expr):
        if isinstance(node, ir.VarRef):
            names.add(node.name)
        elif isinstance(node, (ir.Load, ir.VecLoad, ir.IntrinsicCall)):
            return None
    return names


class Affine(NamedTuple):
    """The index ``sum(c*v for v, c in coeffs) + constant + sum(s*t for
    s, t in terms)``: ``coeffs`` holds the non-zero coefficient of each
    induction variable, ``terms`` the loop-invariant subexpressions that
    are not integer constants, each with its non-zero factor."""

    coeffs: dict[str, int]
    constant: int = 0
    terms: tuple[tuple[int, ir.Expr], ...] = ()


#: The kinds a cast of an index keeps the value in: a narrower integer
#: class would saturate or wrap it.  A tuple: a set would hash the
#: members through ``Enum.__hash__``.
_KEEPING = (ScalarKind.I32, ScalarKind.F32, ScalarKind.F64)

# Affine's fields as a plain tuple, which is cheaper to build.
_Form = tuple[dict[str, int], int, tuple[tuple[int, ir.Expr], ...]]
_ZERO: _Form = ({}, 0, ())


def _plus(left: _Form, right: _Form, factor: int) -> _Form:
    """``left + factor * right``; it copies what it changes."""
    coeffs = left[0]
    if right[0]:
        coeffs = coeffs.copy()
        for var, coeff in right[0].items():
            total = coeffs.pop(var, 0) + factor * coeff
            if total:
                coeffs[var] = total
    terms = left[2]
    if factor and right[2]:
        terms += tuple((factor * s, t) for s, t in right[2])
    return coeffs, left[1] + factor * right[1], terms


def affine(index: ir.Expr, loop_vars: tuple[str, ...],
           written_names: set[str] | frozenset[str] = frozenset(),
           written_arrays: set[str] | frozenset[str] = frozenset(),
           ) -> Affine | None:
    """``index`` as an :class:`Affine` in the induction variables
    ``loop_vars``, or None when it is not affine in them or when a term
    reads a name in ``written_names`` or an array in ``written_arrays``
    (what the loop writes, but its induction variables) or calls a
    custom instruction."""
    result = _form(index, (loop_vars, written_names, written_arrays))
    # The copy keeps callers off a dict _plus may share (_ZERO's).
    return None if result is None else \
        Affine(dict(result[0]), result[1], result[2])


def _form(expr: ir.Expr, scope: tuple) -> _Form | None:
    """:func:`affine` of ``expr``, ``scope`` holding its other
    arguments."""
    loop_vars, written_names, written_arrays = scope
    cls = type(expr)
    if cls is ir.VarRef:
        if expr.name in loop_vars:
            return {expr.name: 1}, 0, ()
        if expr.name in written_names:
            return None
        return {}, 0, ((1, expr),)
    if cls is ir.Const:
        if isinstance(expr.value, (int, float)) and \
                float(expr.value).is_integer():
            return {}, int(expr.value), ()
    elif cls is ir.Cast and expr.type.kind in _KEEPING:
        return _form(expr.operand, scope)
    elif cls is ir.UnOp and expr.op == "neg":
        inner = _form(expr.operand, scope)
        return None if inner is None else _plus(_ZERO, inner, -1)
    elif cls is ir.BinOp and expr.op in ("add", "sub", "mul"):
        left = _form(expr.left, scope)
        right = None if left is None else _form(expr.right, scope)
        if right is None:
            return None
        if expr.op != "mul":
            return _plus(left, right, 1 if expr.op == "add" else -1)
        # Affine with an integer-constant factor, else a term below.
        if not (left[0] or left[2]):
            return _plus(_ZERO, right, left[1])
        if not (right[0] or right[2]):
            return _plus(_ZERO, left, right[1])
    # Anything else is one term, if it is invariant.
    for node in ir.walk_expr(expr):
        if isinstance(node, ir.IntrinsicCall) or \
                isinstance(node, ir.VarRef) and (
                    node.name in loop_vars or
                    node.name in written_names) or \
                isinstance(node, (ir.Load, ir.VecLoad)) and \
                node.array in written_arrays:
            return None
    return {}, 0, ((1, expr),)


def trip_count(loop: ir.ForRange) -> int | None:
    """How many times ``loop`` runs when its bounds are constants (any
    step), else None."""
    if isinstance(loop.start, ir.Const) and isinstance(loop.stop, ir.Const):
        return len(range(int(loop.start.value), int(loop.stop.value),
                         loop.step))
    return None
