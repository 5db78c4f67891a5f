"""Custom-instruction selection as data: one pattern table, one driver.

Each row of :data:`PATTERNS` maps one IR shape onto one operation of
the processor description; a target that lacks the operation keeps the
scalar code.  ``simd-vectorize`` rows are the lane ops the SIMD
vectorizer builds vector expressions from (:mod:`repro.vectorize.simd`);
the other groups rewrite scalar expressions in place, one
:class:`PatternSelector` pass per group
(:mod:`repro.vectorize.complexops`, :mod:`repro.vectorize.idioms`).
Adding an idiom is one row here plus one example in
``tests/test_select_patterns.py``, which fails for a row nothing fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.asip.model import ProcessorDescription
from repro.asip.operations import OPERATIONS
from repro.ir import nodes as ir
from repro.ir.passes.rewrite import rewrite_stmt_exprs
from repro.ir.types import IRType, ScalarType
from repro.observe import remarks as obs_remarks


@dataclass(frozen=True)
class Pattern:
    """One IR-shape → custom-instruction mapping.

    ``group`` names the selector that applies the row; ``root`` and
    ``op`` are the matched node class (``ir.BinOp``, ``ir.UnOp`` or
    ``ir.MathCall``) and its op or function name.  ``elem`` is the
    element-type precondition, on the root's type (on the loop's
    element type for a lane row).  ``operands`` takes the instruction's
    operands from a match, or returns None when the shape does not fit.
    ``remark`` says what was selected.  The instruction is looked up
    for the root's element kind, or for the first operand's when the
    operation has a real result (``cmag2`` over a complex operand).
    """

    group: str
    root: type
    op: str
    elem: Callable[[IRType], bool]
    operation: str
    operands: Callable[[ir.Expr], "list[ir.Expr] | None"]
    remark: str = ""


# -- element-type preconditions ----------------------------------------


def _any(t: IRType) -> bool:
    return True


def _real(t: IRType) -> bool:
    return isinstance(t, ScalarType) and not t.is_complex


def _complex(t: IRType) -> bool:
    return isinstance(t, ScalarType) and t.is_complex


def _real_float(t: IRType) -> bool:
    return isinstance(t, ScalarType) and t.is_float  # F32/F64 only


# -- operand matchers --------------------------------------------------


def _binary(e: ir.BinOp) -> list[ir.Expr]:
    return [e.left, e.right]


def _unary(e: ir.UnOp) -> list[ir.Expr]:
    return [e.operand]


def _first_arg(e: ir.MathCall) -> list[ir.Expr]:
    return [e.args[0]]


def _mac(e: ir.BinOp) -> list[ir.Expr] | None:
    """``x + a*b`` (either side) → ``[x, a, b]``."""
    for addend, product in ((e.left, e.right), (e.right, e.left)):
        if isinstance(product, ir.BinOp) and product.op == "mul" and \
                product.type == e.type:
            return [addend, product.left, product.right]
    return None


def _clip(e: ir.BinOp) -> list[ir.Expr] | None:
    """``min(max(x, lo), hi)`` → ``[x, lo, hi]``.

    Only the min-outer nesting is matched: ``max(min(x, hi), lo)`` is
    *not* equivalent when lo > hi, so mapping it onto the same
    instruction would change semantics.  Operand order inside the inner
    ``max`` is irrelevant (max commutes), so either operand may play
    the role of x.
    """
    for inner, hi in ((e.left, e.right), (e.right, e.left)):
        if isinstance(inner, ir.BinOp) and inner.op == "max" and \
                inner.type == e.type:
            return [inner.left, inner.right, hi]
    return None


def _cmul_operands(e: ir.Expr) -> list[ir.Expr] | None:
    """``[a, b]`` of a complex product, already selected as ``cmul`` or
    still a ``BinOp``."""
    if isinstance(e, ir.IntrinsicCall) and \
            e.instruction.operation == "cmul":
        return [e.args[0], e.args[1]]
    if isinstance(e, ir.BinOp) and e.op == "mul" and _complex(e.type):
        return [e.left, e.right]
    return None


def _cmac(e: ir.BinOp) -> list[ir.Expr] | None:
    """Complex ``x + a*b`` (either side) → ``[x, a, b]``."""
    for addend, product in ((e.left, e.right), (e.right, e.left)):
        factors = _cmul_operands(product)
        if factors is not None:
            return [addend, *factors]
    return None


def _mag2_operand(e: ir.Expr, part: str) -> ir.Expr | None:
    """The complex ``z`` of ``part(z) * part(z)``."""
    if not isinstance(e, ir.BinOp) or e.op != "mul":
        return None
    left, right = e.left, e.right
    if not (isinstance(left, ir.MathCall) and left.name == part and
            isinstance(right, ir.MathCall) and right.name == part):
        return None
    if not exprs_equal(left.args[0], right.args[0]):
        return None
    z = left.args[0]
    return z if _complex(z.type) else None


def _cmag2(e: ir.BinOp) -> list[ir.Expr] | None:
    """``real(z)*real(z) + imag(z)*imag(z)`` (either order) → ``[z]``."""
    for first, second in (("real", "imag"), ("imag", "real")):
        z = _mag2_operand(e.left, first)
        z2 = _mag2_operand(e.right, second)
        if z is not None and z2 is not None and exprs_equal(z, z2):
            return [z]
    return None


def exprs_equal(a: ir.Expr, b: ir.Expr) -> bool:
    """Structural equality of pure expressions.

    Deliberately not dataclass ``==``: an ``IntrinsicCall`` (or any
    node not listed) never equals anything, so a matcher cannot merge
    two already-selected instructions into one."""
    if type(a) is not type(b) or a.type != b.type:
        return False
    if isinstance(a, ir.Const):
        return a.value == b.value
    if isinstance(a, ir.VarRef):
        return a.name == b.name
    if isinstance(a, ir.BinOp):
        return a.op == b.op and exprs_equal(a.left, b.left) and \
            exprs_equal(a.right, b.right)
    if isinstance(a, ir.UnOp):
        return a.op == b.op and exprs_equal(a.operand, b.operand)
    if isinstance(a, ir.MathCall):
        return a.name == b.name and len(a.args) == len(b.args) and \
            all(exprs_equal(x, y) for x, y in zip(a.args, b.args))
    if isinstance(a, ir.Cast):
        return exprs_equal(a.operand, b.operand)
    if isinstance(a, ir.Load):
        return a.array == b.array and exprs_equal(a.index, b.index)
    if isinstance(a, ir.MakeComplex):
        return exprs_equal(a.real, b.real) and exprs_equal(a.imag, b.imag)
    return False


# -- the table ---------------------------------------------------------

_LANE, _COMPLEX = "simd-vectorize", "complex-select"

#: Every custom-instruction idiom the compiler selects.  Rows sharing a
#: root and op are tried in table order: in a scalar group the first
#: that matches and that the processor provides wins; the vectorizer
#: takes the first lane row whose precondition holds.
PATTERNS: tuple[Pattern, ...] = (
    Pattern(_LANE, ir.BinOp, "add", _any, "vadd", _binary),
    Pattern(_LANE, ir.BinOp, "sub", _any, "vsub", _binary),
    Pattern(_LANE, ir.BinOp, "mul", _any, "vmul", _binary),
    Pattern(_LANE, ir.BinOp, "div", _any, "vdiv", _binary),
    Pattern(_LANE, ir.BinOp, "min", _any, "vmin", _binary),
    Pattern(_LANE, ir.BinOp, "max", _any, "vmax", _binary),
    Pattern(_LANE, ir.UnOp, "neg", _any, "vneg", _unary),
    Pattern(_LANE, ir.MathCall, "abs", _real, "vabs", _first_arg),
    Pattern(_LANE, ir.MathCall, "conj", _complex, "vconj", _first_arg),
    Pattern(_COMPLEX, ir.BinOp, "add", _complex, "cmac", _cmac,
            "fused complex multiply-accumulate x + a*b"),
    Pattern(_COMPLEX, ir.BinOp, "add", _complex, "cadd", _binary,
            "complex 'add'"),
    Pattern(_COMPLEX, ir.BinOp, "sub", _complex, "csub", _binary,
            "complex 'sub'"),
    Pattern(_COMPLEX, ir.BinOp, "mul", _complex, "cmul", _binary,
            "complex 'mul'"),
    Pattern(_COMPLEX, ir.MathCall, "conj", _complex, "cconj", _first_arg,
            "complex conjugate"),
    Pattern(_COMPLEX, ir.BinOp, "add", _real, "cmag2", _cmag2,
            "squared magnitude real(z)^2 + imag(z)^2"),
    Pattern("clip-idiom", ir.BinOp, "min", _real_float, "clip", _clip,
            "clip idiom min(max(x, lo), hi)"),
    Pattern("scalar-mac", ir.BinOp, "add", _real_float, "mac", _mac,
            "scalar multiply-accumulate x + a*b"),
)

#: The attribute holding a root class's op.
_OP_FIELD = {ir.BinOp: "op", ir.UnOp: "op", ir.MathCall: "name"}


def pattern_index(group: str) -> dict:
    """``group``'s rows by root class, then by op, in table order."""
    table: dict[type, dict[str, list[Pattern]]] = {}
    for row in PATTERNS:
        if row.group == group:
            table.setdefault(row.root, {}).setdefault(row.op, []).append(row)
    return {root: (_OP_FIELD[root],
                   {op: tuple(rows) for op, rows in by_op.items()})
            for root, by_op in table.items()}


def candidates(rows: dict, expr: ir.Expr) -> tuple[Pattern, ...]:
    """The rows of an index whose root and op are ``expr``'s."""
    entry = rows.get(type(expr))
    if entry is None:
        return ()
    field, by_op = entry
    return by_op.get(getattr(expr, field), ())


class PatternSelector:
    """Applies one group of :data:`PATTERNS` to a function.

    Statement at a time, so each remark carries the source line of the
    statement whose expression selected the instruction; within a
    statement, bottom-up, so a row sees operands already selected
    (``cmac`` over a ``cmul``).  Subclasses name their group.
    """

    name = ""

    def __init__(self, processor: ProcessorDescription):
        self.processor = processor
        self._rows = pattern_index(self.name)

    def run(self, func: ir.IRFunction) -> bool:
        self._changed = False
        self._func = func
        self._line = 0
        self._walk(func.body)
        return self._changed

    def _walk(self, body: list[ir.Stmt]) -> None:
        for stmt in body:
            self._line = stmt.line
            rewrite_stmt_exprs(stmt, self._rewrite)
            for sub in stmt.substatements():
                self._walk(sub)

    def _rewrite(self, expr: ir.Expr) -> ir.Expr:
        if type(expr) not in self._rows:  # most nodes: no row's root
            return expr
        for row in candidates(self._rows, expr):
            if not row.elem(expr.type):
                continue
            args = row.operands(expr)
            if args is None:
                continue
            kind_of = args[0] if OPERATIONS[row.operation].real_result \
                else expr
            instr = self.processor.find(row.operation, kind_of.type.kind, 1)
            if instr is None:
                continue
            self._changed = True
            obs_remarks.passed(self.name,
                               f"selected {instr.name!r} for {row.remark}",
                               function=self._func.name, line=self._line,
                               instruction=instr.name)
            return ir.IntrinsicCall(expr.type, instruction=instr, args=args)
        return expr
