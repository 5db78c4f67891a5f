"""Custom-instruction selection as data: one pattern table, one driver.

Each row of :data:`PATTERNS` maps one IR shape onto operations of the
processor description; a target that lacks them keeps the scalar code.
``simd-vectorize`` rows are the lane ops the SIMD vectorizer builds
vector expressions from, and ``simd-reduce`` rows the reductions it
accumulates in a vector register (:mod:`repro.vectorize.simd`); the
other groups rewrite scalar expressions in place, one
:class:`PatternSelector` pass per group
(:mod:`repro.vectorize.complexops`, :mod:`repro.vectorize.idioms`).
Every group picks its row by one rule, :func:`select_row`.  Adding an
idiom is one row here plus one example in
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
    ``remark`` says what was selected.

    A reduction row matches the term of ``acc = acc <op> term`` (``op``
    is the combine op) and also names its ``step``, the instruction
    that combines the term's operands into a vector accumulator each
    iteration, its ``fold``, the horizontal reduction of that
    accumulator after the loop, and the accumulator's ``identity``.
    Its ``operation`` is the one of the two that sets the row apart:
    the fused step, or the fold of a row that steps with its combine
    op's lane instruction.
    """

    group: str
    root: type
    op: str
    elem: Callable[[IRType], bool]
    operation: str
    operands: Callable[[ir.Expr], "list[ir.Expr] | None"]
    remark: str = ""
    step: str = ""
    fold: str = ""
    identity: int = 0

    @property
    def instructions(self) -> tuple[str, ...]:
        """The operations the processor must provide for the row."""
        return (self.step, self.fold) if self.fold else (self.operation,)


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


def _itself(e: ir.Expr) -> list[ir.Expr]:
    return [e]


def _product(e: ir.Expr) -> list[ir.Expr] | None:
    """``a*b`` → ``[a, b]``."""
    if isinstance(e, ir.BinOp) and e.op == "mul":
        return [e.left, e.right]
    return None


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

_LANE, _REDUCE, _COMPLEX = "simd-vectorize", "simd-reduce", "complex-select"

#: Every custom-instruction idiom the compiler selects.  Rows sharing a
#: root and op are tried in table order (see :func:`select_row`).
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
    Pattern(_REDUCE, ir.BinOp, "add", _any, "vmac", _product,
            step="vmac", fold="vredadd", identity=0),
    Pattern(_REDUCE, ir.BinOp, "add", _any, "vredadd", _itself,
            step="vadd", fold="vredadd", identity=0),
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


def select_row(rows: tuple[Pattern, ...], expr: ir.Expr, elem: IRType,
               processor: ProcessorDescription, lanes: int = 1,
               vector: Callable[[ir.Expr], "ir.Expr | None"] | None = None,
               ) -> "tuple[Pattern, list, list[ir.Expr]] | None":
    """The first of ``rows`` that fits ``expr``, as ``(row,
    instructions, operands)``, or None when none does.

    The one row rule of every group: a row fits when its precondition
    holds on ``elem``, its matcher takes operands from ``expr``, the
    processor provides each of its operations at ``lanes`` lanes, and,
    given ``vector`` (an operand's vector form, or None), every operand
    has a vector form.  A row that does not fit passes to the next.
    The instructions are found for ``elem``'s kind, or for the first
    operand's when the operation has a real result (``cmag2`` over a
    complex operand).
    """
    for row in rows:
        if not row.elem(elem):
            continue
        args = row.operands(expr)
        if args is None:
            continue
        kind = (args[0].type if OPERATIONS[row.operation].real_result
                else elem).kind
        found = [processor.find(name, kind, lanes)
                 for name in row.instructions]
        if any(instr is None for instr in found):
            continue
        if vector is None:
            return row, found, args
        vectors = []
        for arg in args:
            vectors.append(vector(arg))
            if vectors[-1] is None:
                break
        else:
            return row, found, vectors
    return None


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
        fit = select_row(candidates(self._rows, expr), expr, expr.type,
                         self.processor)
        if fit is None:
            return expr
        row, (instr,), args = fit
        self._changed = True
        obs_remarks.passed(self.name,
                           f"selected {instr.name!r} for {row.remark}",
                           function=self._func.name, line=self._line,
                           instruction=instr.name)
        return ir.IntrinsicCall(expr.type, instruction=instr, args=args)
