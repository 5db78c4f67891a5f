"""Structured mid-level IR.

The IR sits between the MATLAB AST and C: every array operation has been
scalarized into explicit loop nests over statically-shaped column-major
arrays, all indices are 0-based linear offsets, and types are concrete
machine types.  Control flow stays structured (``ForRange``/``While``/
``If``), which keeps both the C emitter and the loop vectorizer simple —
the vectorizer pattern-matches innermost ``ForRange`` bodies.

After vectorization, loops may additionally contain vector-typed virtual
registers and :class:`IntrinsicCall` expressions referring to the target
processor's custom instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.ir.types import ArrayType, IRType

if TYPE_CHECKING:  # pragma: no cover
    from repro.asip.model import Instruction


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass
class Expr:
    """Base class of IR expressions; every expression knows its type."""

    type: IRType


@dataclass
class Const(Expr):
    """A literal scalar (int/float/complex/bool)."""

    value: object = 0

    def __repr__(self) -> str:
        return f"Const({self.value!r}: {self.type.describe()})"


@dataclass
class VarRef(Expr):
    """Read of a scalar or vector virtual register / local variable."""

    name: str = ""

    def __repr__(self) -> str:
        return f"VarRef({self.name}: {self.type.describe()})"


@dataclass
class BinOp(Expr):
    """Binary scalar operation.

    op is one of: add sub mul div pow rem
                  eq ne lt le gt ge land lor
                  min max
    """

    op: str = "add"
    left: Expr = None
    right: Expr = None


@dataclass
class UnOp(Expr):
    """Unary scalar operation: neg, lnot."""

    op: str = "neg"
    operand: Expr = None


@dataclass
class MathCall(Expr):
    """Call to a math-library scalar function.

    name is one of: abs sqrt exp log sin cos tan atan atan2 hypot floor
    ceil round fix sign mod rem pow conj real imag arg
    """

    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Cast(Expr):
    """Numeric conversion to ``type``."""

    operand: Expr = None


@dataclass
class MakeComplex(Expr):
    """Build a complex scalar from real and imaginary parts."""

    real: Expr = None
    imag: Expr = None


@dataclass
class Load(Expr):
    """Element load ``array[index]`` with a 0-based linear index."""

    array: str = ""
    index: Expr = None


# -- vector expressions (introduced by the vectorizer) -------------------


@dataclass
class VecLoad(Expr):
    """Contiguous vector load of ``type.lanes`` elements at linear base.

    ``instruction`` is the target's matched vload custom instruction;
    the C backend prints its intrinsic, the simulator charges its cost.
    When ``reverse`` is set the lanes come out in descending address
    order: lane i holds element ``base + lanes-1-i`` (vloadr).
    """

    array: str = ""
    base: Expr = None  # linear element offset of the lowest-address lane
    instruction: "Instruction" = None
    reverse: bool = False


@dataclass
class IntrinsicCall(Expr):
    """Invocation of a target-specific custom instruction.

    The backend prints it as a call to the instruction's intrinsic
    function; the simulator executes its semantics and charges its
    cycle cost.  ``type`` is a VectorType or a ScalarType.
    """

    instruction: "Instruction" = None
    args: list[Expr] = field(default_factory=list)


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class of IR statements."""

    #: 1-based MATLAB source line the statement was lowered from
    #: (0 = compiler-generated / unknown).  Deliberately a plain class
    #: attribute, not a dataclass field: every subclass is constructed
    #: positionally, and the line is attached after construction by the
    #: lowerer (:func:`clone` and pickle preserve it via __dict__).
    line = 0

    def substatements(self) -> list[list["Stmt"]]:
        """Nested statement lists (for generic traversal)."""
        return []


@dataclass
class AssignVar(Stmt):
    """``name = value`` for a scalar or vector virtual register."""

    name: str = ""
    value: Expr = None


@dataclass
class Store(Stmt):
    """``array[index] = value`` with a 0-based linear index."""

    array: str = ""
    index: Expr = None
    value: Expr = None


@dataclass
class VecStore(Stmt):
    """Contiguous vector store of ``value.type.lanes`` elements."""

    array: str = ""
    base: Expr = None
    value: Expr = None
    instruction: "Instruction" = None


@dataclass
class ForRange(Stmt):
    """``for (var = start; var < stop; var += step) body`` over i32 var.

    ``step`` is a non-zero compile-time int; a negative step flips the
    continuation test to ``var > stop``.  The trip count may be a
    runtime expression.  MATLAB loops are normalized to this 0-based,
    exclusive-stop form during lowering.
    """

    var: str = ""
    start: Expr = None
    stop: Expr = None
    step: int = 1
    body: list[Stmt] = field(default_factory=list)

    def substatements(self) -> list[list[Stmt]]:
        return [self.body]


@dataclass
class While(Stmt):
    condition: Expr = None
    body: list[Stmt] = field(default_factory=list)

    def substatements(self) -> list[list[Stmt]]:
        return [self.body]


@dataclass
class If(Stmt):
    condition: Expr = None
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)

    def substatements(self) -> list[list[Stmt]]:
        return [self.then_body, self.else_body]


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Return(Stmt):
    """Early return; outputs are always written through out-parameters."""


@dataclass
class Call(Stmt):
    """Call of another IR function.

    Array arguments are passed by name (pointer); scalar results are
    written into the named result variables, array results into the
    named arrays.
    """

    callee: str = ""
    args: list[Expr | str] = field(default_factory=list)   # str = array name
    results: list[str] = field(default_factory=list)        # var/array names


@dataclass
class Emit(Stmt):
    """An I/O side effect (disp/fprintf): printf-style format + args."""

    format: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class CopyArray(Stmt):
    """Whole-array copy ``dst[:] = src[:]`` (same element count)."""

    dst: str = ""
    src: str = ""


# ----------------------------------------------------------------------
# Functions and modules
# ----------------------------------------------------------------------


@dataclass
class Param:
    """One function parameter; arrays are pointers, outputs writable."""

    name: str
    type: IRType
    is_output: bool = False


@dataclass
class IRFunction:
    """One lowered function: parameters, typed locals, structured body.

    Calling convention: ``params`` are the inputs in source order;
    ``outputs`` are the MATLAB return values in order.  Array outputs
    are caller-allocated buffers written in place; scalar outputs are
    ordinary locals that the C backend writes back through pointer
    out-parameters.  Array outputs do not appear in ``locals``.
    """

    name: str
    params: list[Param] = field(default_factory=list)
    outputs: list[Param] = field(default_factory=list)
    locals: dict[str, IRType] = field(default_factory=dict)
    body: list[Stmt] = field(default_factory=list)
    source_name: str = ""

    def local_type(self, name: str) -> IRType | None:
        for param in self.params:
            if param.name == name:
                return param.type
        for param in self.outputs:
            if param.name == name:
                return param.type
        return self.locals.get(name)

    def declare(self, name: str, ir_type: IRType) -> None:
        self.locals[name] = ir_type

    def array_names(self) -> list[str]:
        names = [p.name for p in self.params if isinstance(p.type, ArrayType)]
        names.extend(p.name for p in self.outputs if isinstance(p.type, ArrayType))
        names.extend(n for n, t in self.locals.items() if isinstance(t, ArrayType))
        return names


@dataclass
class IRModule:
    """A compilation unit: all specialized functions, entry last."""

    functions: list[IRFunction] = field(default_factory=list)
    entry: str = ""

    def function(self, name: str) -> IRFunction | None:
        for func in self.functions:
            if func.name == name:
                return func
        return None

    @property
    def entry_function(self) -> IRFunction:
        func = self.function(self.entry)
        if func is None:
            raise KeyError(f"entry function {self.entry!r} not in module")
        return func


def walk_statements(body: list[Stmt]) -> Iterator[Stmt]:
    """Pre-order traversal of a statement tree."""
    for stmt in body:
        yield stmt
        for sub in stmt.substatements():
            yield from walk_statements(sub)


# ----------------------------------------------------------------------
# Child-field tables
# ----------------------------------------------------------------------


class Many(str):
    """Marks a field holding a list.  Its ``Expr`` items are children;
    any other item (an array or result name of a :class:`Call`) is
    plain data."""


class Block(str):
    """Marks a statement field holding a nested statement list."""


#: Child-expression fields of every expression class, in evaluation
#: (and pre-order) sequence.
EXPR_FIELDS: dict[type, tuple[str, ...]] = {
    Const: (),
    VarRef: (),
    BinOp: ("left", "right"),
    UnOp: ("operand",),
    MathCall: (Many("args"),),
    Cast: ("operand",),
    MakeComplex: ("real", "imag"),
    Load: ("index",),
    VecLoad: ("base",),
    IntrinsicCall: (Many("args"),),
}

#: Expression, list and nested-body fields of every statement class.
STMT_FIELDS: dict[type, tuple[str, ...]] = {
    AssignVar: ("value",),
    Store: ("index", "value"),
    VecStore: ("base", "value"),
    ForRange: ("start", "stop", Block("body")),
    While: ("condition", Block("body")),
    If: ("condition", Block("then_body"), Block("else_body")),
    Break: (),
    Continue: (),
    Return: (),
    Call: (Many("args"), Many("results")),
    Emit: (Many("args"),),
    CopyArray: (),
}

#: The tables as ``(field, holds a list)`` pairs, the form the walkers
#: and rewriters iterate; a statement's nested bodies are left out.
EXPR_SLOTS = {cls: tuple((name, isinstance(name, Many)) for name in fields)
              for cls, fields in EXPR_FIELDS.items()}
STMT_EXPR_SLOTS = {cls: tuple((name, isinstance(name, Many))
                              for name in fields
                              if not isinstance(name, Block))
                   for cls, fields in STMT_FIELDS.items()}
# Reversed, so that a stack pops the children back in order.
_EXPR_PUSH = {cls: slots[::-1] for cls, slots in EXPR_SLOTS.items()}
_ALL_FIELDS = {**EXPR_FIELDS, **STMT_FIELDS}


def walk_expr(expr: Expr) -> list[Expr]:
    """Pre-order traversal of an expression tree."""
    order = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        order.append(node)
        for name, many in _EXPR_PUSH[type(node)]:
            if many:
                stack.extend(reversed(getattr(node, name)))
            else:
                stack.append(getattr(node, name))
    return order


def statement_exprs(stmt: Stmt) -> list[Expr]:
    """Top-level expressions directly owned by one statement."""
    exprs = []
    for name, many in STMT_EXPR_SLOTS[type(stmt)]:
        if many:
            exprs.extend(a for a in getattr(stmt, name)
                         if isinstance(a, Expr))
        else:
            exprs.append(getattr(stmt, name))
    return exprs


def clone(node):
    """Structural copy of an expression, a statement or a list of them.

    Every ``Expr``, ``Stmt`` and list is new; the immutable leaves (the
    frozen IR types, :class:`~repro.asip.model.Instruction` objects,
    names and constants) are shared.  Copying ``__dict__`` keeps a
    statement's ``line``.
    """
    if isinstance(node, list):
        return [clone(item) for item in node]
    cls = type(node)
    state = node.__dict__.copy()
    for name in _ALL_FIELDS[cls]:
        value = state[name]
        if isinstance(name, Many):
            state[name] = [clone(item) if isinstance(item, Expr) else item
                           for item in value]
        elif isinstance(name, Block):
            state[name] = [clone(item) for item in value]
        elif value is not None:
            state[name] = clone(value)
    copy = object.__new__(cls)
    copy.__dict__ = state
    return copy
