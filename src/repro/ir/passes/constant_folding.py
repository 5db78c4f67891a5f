"""Constant folding, cast narrowing, and algebraic simplification.

Lowering produces many index expressions of the shape
``cast<i32>(cast<f64>(n) + 1.0) - 1`` because MATLAB indices are doubles.
This pass folds constants, removes round-trip casts, and *narrows*
integer-valued f64 arithmetic back to i32 — after it, index expressions
are plain integer arithmetic, which both reads better in the generated C
and is what the SIMD vectorizer's affine analysis expects.
"""

from __future__ import annotations

import math

from repro.ir import nodes as ir
from repro.ir.affine import trip_count
from repro.ir.passes.rewrite import rewrite_tree
from repro.ir.types import ScalarKind, ScalarType

_I32 = ScalarType(ScalarKind.I32)
_F64 = ScalarType(ScalarKind.F64)

_FOLDABLE_MATH = {
    "abs": abs,
    "sqrt": math.sqrt,
    "floor": math.floor,
    "ceil": math.ceil,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
}


def _is_const(expr: ir.Expr, value=None) -> bool:
    if not isinstance(expr, ir.Const):
        return False
    if value is None:
        return True
    try:
        return expr.value == value and not isinstance(expr.value, bool)
    except TypeError:
        return False


def _const_for(kind: ScalarKind, value) -> ir.Const:
    if kind.is_complex:
        return ir.Const(ScalarType(kind), complex(value))
    if kind is ScalarKind.BOOL:
        return ir.Const(ScalarType(kind), bool(value))
    if kind.is_integer:
        return ir.Const(ScalarType(kind), int(value))
    return ir.Const(ScalarType(kind), float(value))


class ConstantFolding:
    """Fold constants and simplify expressions bottom-up."""

    name = "constant-folding"

    def __init__(self) -> None:
        self._changed = False

    def run(self, func: ir.IRFunction) -> bool:
        self._changed = False
        rewrite_tree(func.body, self._simplify)
        self._simplify_control(func.body)
        return self._changed

    # ------------------------------------------------------------------
    # Expression simplification
    # ------------------------------------------------------------------

    def _simplify(self, expr: ir.Expr) -> ir.Expr:
        if isinstance(expr, ir.BinOp):
            return self._simplify_binop(expr)
        if isinstance(expr, ir.UnOp):
            return self._simplify_unop(expr)
        if isinstance(expr, ir.Cast):
            return self._simplify_cast(expr)
        if isinstance(expr, ir.MathCall):
            return self._simplify_math(expr)
        if isinstance(expr, ir.MakeComplex):
            if _is_const(expr.real) and _is_const(expr.imag):
                self._changed = True
                return ir.Const(expr.type,
                                complex(expr.real.value, expr.imag.value))
        return expr

    def _simplify_binop(self, expr: ir.BinOp) -> ir.Expr:
        left, right = expr.left, expr.right
        kind = expr.type.kind if isinstance(expr.type, ScalarType) else None

        if isinstance(left, ir.Const) and isinstance(right, ir.Const) \
                and kind is not None:
            folded = self._fold_binop(expr.op, left.value, right.value, kind)
            if folded is not None:
                self._changed = True
                return folded

        is_int = kind is not None and kind.is_integer
        # Algebraic identities (float-safe subset only: x+0 and x*1 are
        # exact in IEEE; x*0 is folded only for integers because of NaN).
        if expr.op == "add":
            if _is_const(right, 0):
                self._changed = True
                return left
            if _is_const(left, 0):
                self._changed = True
                return right
        elif expr.op == "sub":
            if _is_const(right, 0):
                self._changed = True
                return left
        elif expr.op == "mul":
            if _is_const(right, 1):
                self._changed = True
                return left
            if _is_const(left, 1):
                self._changed = True
                return right
            if is_int and (_is_const(right, 0) or _is_const(left, 0)):
                self._changed = True
                return ir.Const(expr.type, 0)
        elif expr.op == "div":
            if _is_const(right, 1):
                self._changed = True
                return left

        # Re-associate integer add/sub chains: (x + c1) + c2 -> x + c.
        if is_int and expr.op in ("add", "sub") and \
                isinstance(right, ir.Const):
            inner = left
            if isinstance(inner, ir.BinOp) and inner.op in ("add", "sub") \
                    and isinstance(inner.right, ir.Const) and \
                    isinstance(inner.type, ScalarType) and \
                    inner.type.kind.is_integer:
                c_outer = right.value if expr.op == "add" else -right.value
                c_inner = inner.right.value if inner.op == "add" \
                    else -inner.right.value
                total = c_inner + c_outer
                self._changed = True
                if total == 0:
                    return inner.left
                return ir.BinOp(expr.type, op="add", left=inner.left,
                                right=ir.Const(_I32, total))
        return expr

    def _fold_binop(self, op: str, a, b, kind: ScalarKind) -> ir.Const | None:
        try:
            if op == "add":
                value = a + b
            elif op == "sub":
                value = a - b
            elif op == "mul":
                value = a * b
            elif op == "div":
                if kind.is_integer:
                    return None  # never introduce integer division
                if b == 0:
                    return None
                value = a / b
            elif op == "min":
                value = min(a, b)
            elif op == "max":
                value = max(a, b)
            elif op == "pow":
                value = a ** b
            elif op in ("eq", "ne", "lt", "le", "gt", "ge"):
                value = {"eq": a == b, "ne": a != b, "lt": a < b,
                         "le": a <= b, "gt": a > b, "ge": a >= b}[op]
                return ir.Const(ScalarType(ScalarKind.BOOL), bool(value))
            elif op in ("land", "lor"):
                value = (bool(a) and bool(b)) if op == "land" else \
                    (bool(a) or bool(b))
                return ir.Const(ScalarType(ScalarKind.BOOL), bool(value))
            elif op == "rem":
                if b == 0:
                    return None
                value = math.fmod(a, b)
            else:
                return None
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            return None
        try:
            return _const_for(kind, value)
        except (TypeError, ValueError, OverflowError):
            return None

    def _simplify_unop(self, expr: ir.UnOp) -> ir.Expr:
        operand = expr.operand
        if isinstance(operand, ir.Const):
            try:
                if expr.op == "neg":
                    self._changed = True
                    return _const_for(expr.type.kind, -operand.value)
                if expr.op == "lnot":
                    self._changed = True
                    return ir.Const(ScalarType(ScalarKind.BOOL),
                                    not bool(operand.value))
            except TypeError:
                pass
        if expr.op == "neg" and isinstance(operand, ir.UnOp) and \
                operand.op == "neg":
            self._changed = True
            return operand.operand
        return expr

    def _simplify_cast(self, expr: ir.Cast) -> ir.Expr:
        operand = expr.operand
        target = expr.type
        if not isinstance(target, ScalarType):
            return expr
        if isinstance(operand.type, ScalarType) and operand.type == target:
            self._changed = True
            return operand
        if isinstance(operand, ir.Const):
            try:
                folded = _const_for(target.kind, operand.value)
            except (TypeError, ValueError, OverflowError):
                folded = None
            if folded is not None:
                self._changed = True
                return folded
        # Narrow integer-valued float arithmetic under an i32 cast (an
        # i32 <- f64 <- i32 round trip included).
        if target.kind is ScalarKind.I32:
            narrowed = self._narrow_to_i32(operand)
            if narrowed is not None:
                self._changed = True
                return narrowed
        return expr

    def _narrow_to_i32(self, expr: ir.Expr) -> ir.Expr | None:
        """Rewrite an integer-valued f64 expression as i32 arithmetic.

        Sound because every intermediate value is an exact integer well
        inside both f64's exact range and i32 (array extents).
        """
        # A float holds an i32 index exactly; a narrower integer class
        # would saturate it.
        if isinstance(expr, ir.Cast) and expr.type.is_float and \
                isinstance(expr.operand.type, ScalarType) and \
                expr.operand.type.kind is ScalarKind.I32:
            return expr.operand
        if isinstance(expr, ir.Const) and not isinstance(expr.value,
                                                         (complex, bool)):
            if float(expr.value) == int(float(expr.value)):
                return ir.Const(_I32, int(float(expr.value)))
            return None
        if isinstance(expr, ir.BinOp) and expr.op in ("add", "sub", "mul",
                                                      "min", "max"):
            left = self._narrow_to_i32(expr.left)
            if left is None:
                return None
            right = self._narrow_to_i32(expr.right)
            if right is None:
                return None
            return ir.BinOp(_I32, op=expr.op, left=left, right=right)
        if isinstance(expr, ir.UnOp) and expr.op == "neg":
            operand = self._narrow_to_i32(expr.operand)
            if operand is None:
                return None
            return ir.UnOp(_I32, op="neg", operand=operand)
        return None

    def _simplify_math(self, expr: ir.MathCall) -> ir.Expr:
        fn = _FOLDABLE_MATH.get(expr.name)
        if fn is None or len(expr.args) != 1:
            return expr
        arg = expr.args[0]
        if isinstance(arg, ir.Const) and not isinstance(arg.value,
                                                        (complex, bool)):
            try:
                value = fn(float(arg.value))
            except (ValueError, OverflowError):
                return expr
            self._changed = True
            kind = expr.type.kind if isinstance(expr.type, ScalarType) \
                else ScalarKind.F64
            return _const_for(kind, value)
        return expr

    # ------------------------------------------------------------------
    # Control-flow simplification
    # ------------------------------------------------------------------

    def _simplify_control(self, body: list[ir.Stmt]) -> None:
        index = 0
        while index < len(body):
            stmt = body[index]
            for sub in stmt.substatements():
                self._simplify_control(sub)
            replacement = self._simplify_stmt(stmt)
            if replacement is None:
                index += 1
            elif replacement is _REMOVE:
                del body[index]
                self._changed = True
            else:
                body[index:index + 1] = replacement
                self._changed = True
        return

    def _simplify_stmt(self, stmt: ir.Stmt):
        if isinstance(stmt, ir.If) and isinstance(stmt.condition, ir.Const):
            taken = stmt.then_body if stmt.condition.value else stmt.else_body
            return list(taken)
        if isinstance(stmt, ir.While) and \
                isinstance(stmt.condition, ir.Const) and \
                not stmt.condition.value:
            return _REMOVE
        if isinstance(stmt, ir.ForRange) and trip_count(stmt) == 0:
            return _REMOVE
        return None


_REMOVE = object()
