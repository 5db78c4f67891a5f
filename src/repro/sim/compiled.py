"""Compiled-closure executor: the ASIP cycle simulator.

Each :class:`~repro.ir.nodes.IRFunction` is translated once into one
real Python function (``ForRange`` becomes a ``range`` loop,
expressions become inline Python expressions, custom instructions
become pre-resolved operations), compiled with ``exec`` against a
namespace of pre-bound helper closures, and reused for every
subsequent run.

Cost semantics.  Translation reads no processor: every node adds
processor-free cost terms (see :mod:`repro.sim.cost`) to the multiset
of its charge point, keyed by ``(source line, term)``, and the
processor's :class:`~repro.sim.cost.CostModel` prices each point once
per program.  Terms and the category that prices them:

* ``move``: ``("move",)`` for an ``AssignVar``, and twice per
  ``MakeComplex``;
* ``mem``: ``("load", c)`` / ``("store", c)`` for a scalar load or
  store, and ``("copy", c)`` per element of a ``CopyArray``;
* ``alu``: ``("binop", op, c)`` / ``("unop", op, c)`` for a scalar
  operation (one for a short-circuiting ``land`` / ``lor``) and
  ``("cast",)``; vector operations charge only through their custom
  instruction;
* ``math``: ``("math", name, c)`` for a ``MathCall``;
* ``branch``: ``("branch",)`` for an ``If``, every ``for`` iteration,
  and every ``while`` condition check including the final failing one;
* ``call``: ``("call",)`` for a user-function call;
* ``intrinsic``: ``("intrinsic", name)`` for a custom instruction (an
  ``IntrinsicCall``, or a ``VecLoad`` / ``VecStore`` that carries one),
  priced from the processor's instruction table; it also counts in
  ``instruction_counts``.

``c`` says whether the operand is complex.  Each term is attributed to
the source line of the statement that incurs it; loop control belongs
to the loop's own line.

A charge point is one straight-line statement group: the terms charged
unconditionally whenever the group executes.  Each point executes as
one counter update, ``_p[k] += 1``, at the head of its group.
Conditionally evaluated work (the right-hand side of a
short-circuiting ``land`` / ``lor``, ``If`` branches, ``while`` bodies)
has its own point.  A run records how often each point executed; its
report sums count x priced point over the points that executed, so a
category or instruction that never executes leaves no key, and a
hotspot run prices ``line_cycles`` from the same counts without a
second translation.  ``tests/cycle_pins.json`` pins the reports.

Loops are charged once per loop, not per iteration.  A ``ForRange``
whose body holds no statement that can cut an iteration short (a
``Break``, ``Continue`` or ``Return``) charges the same every
iteration: the body's leading group plus the loop branch.  With
constant bounds, trip count x those terms are folded into the
enclosing group at translate time, so a whole constant nest such as
``matmul`` is one point; with run-time bounds, the generated code binds
the ``range`` once and adds ``len(range)`` to the body's point ahead of
the loop.  A loop whose iterations can stop early bumps its point at
the head of each iteration.  The one run-time charge, an array copy of
shape unknown at translate time, adds its element count to a point
whose term is one element copy of that kind.

Vector operands make no numpy temporary.  Every vector ``BinOp`` and
custom instruction builds a fresh result array, so a ``VecLoad``
operand reads as a slice view (a ``VecLoad`` assigned to a variable or
stored directly is still copied), and a splat operand reads as a dtype
scalar that numpy broadcasts, as long as the operation keeps another
array operand.  A standalone splat fills an ``empty`` array; the
``vred*`` reductions call the ufunc ``reduce`` directly.  Casts to a
real kind are inline ``int()`` / ``float()`` / ``bool()`` conversions,
preceded by ``.real`` only when the operand may hold a complex
(``c_pow`` of a negative base returns one even in a real-typed slot).

The ``max_steps`` guard counts ``while``-condition checks only (the
generated ``for`` loops always terminate).  Errors from malformed IR
(unknown arrays, unassigned reads) surface as
:class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter

import numpy as np

from repro.asip.model import ProcessorDescription
from repro.asip.operations import BINARY_SPLATS, OPERATIONS
from repro.errors import SimulationError
from repro.numeric import c_pow
from repro.ir import nodes as ir
from repro.ir.affine import trip_count
from repro.ir.types import ArrayType, ScalarKind, ScalarType, VectorType
from repro.sim.cost import CostModel, cycle_report, line_cycles
from repro.sim.machine import (
    ExecutionResult,
    as_buffer,
    coerce_scalar,
    format_emit,
    from_numpy,
    numpy_dtype,
)

# ----------------------------------------------------------------------
# Runtime helpers bound into every generated function's namespace.
# ----------------------------------------------------------------------


def _idiv(left, right):
    return int(left / right) if right != 0 else 0


def _fdiv(left, right):
    try:
        return left / right
    except ZeroDivisionError:
        return float("inf") if left > 0 else (
            float("-inf") if left < 0 else float("nan"))


def _rem_op(left, right):
    return math.fmod(left, right) if right != 0 else float("nan")


def _cmag2(value):
    return value.real * value.real + value.imag * value.imag


#: Inline conversion a ``Cast`` to each real kind emits (C truncates
#: toward zero on a float-to-int cast, like ``int()``).  A cast to a
#: complex kind is ``complex()`` whatever its operand.
_REAL_CASTS = {
    ScalarKind.BOOL: "bool({})",
    ScalarKind.I8: "int({})",
    ScalarKind.I16: "int({})",
    ScalarKind.I32: "int({})",
    ScalarKind.F32: "float(_npf32({}))",
    ScalarKind.F64: "float({})",
}


def _splat(lanes, value, dtype):
    out = np.empty(lanes, dtype)
    out.fill(value)
    return out


def _m_abs(a):
    return abs(a)


def _m_sqrt(a):
    return cmath.sqrt(a) if isinstance(a, complex) else math.sqrt(abs(a)) \
        if a >= 0 else float("nan")


def _m_exp(a):
    return cmath.exp(a) if isinstance(a, complex) else math.exp(a)


def _m_log(a):
    return cmath.log(a) if isinstance(a, complex) else (
        math.log(a) if a > 0 else float("-inf") if a == 0
        else float("nan"))


def _m_sin(a):
    return cmath.sin(a) if isinstance(a, complex) else math.sin(a)


def _m_cos(a):
    return cmath.cos(a) if isinstance(a, complex) else math.cos(a)


def _m_tan(a):
    return cmath.tan(a) if isinstance(a, complex) else math.tan(a)


def _m_atan(a):
    return math.atan(a)


def _m_atan2(a, b):
    return math.atan2(a, b)


def _m_hypot(a, b):
    return math.hypot(a, b)


def _m_floor(a):
    return float(math.floor(a))


def _m_ceil(a):
    return float(math.ceil(a))


def _m_round(a):
    # MATLAB rounds halves away from zero.
    return float(math.floor(a + 0.5)) if a >= 0 else \
        float(math.ceil(a - 0.5))


def _m_fix(a):
    return float(math.trunc(a))


def _m_sign(a):
    return float((a > 0) - (a < 0))


def _m_mod(a, b):
    if b == 0:
        return a
    return a - math.floor(a / b) * b


def _m_rem(a, b):
    return math.fmod(a, b) if b != 0 else float("nan")


def _m_pow(a, b):
    return c_pow(a, b)


def _m_conj(a):
    return a.conjugate() if isinstance(a, complex) else a


def _m_real(a):
    return a.real if isinstance(a, complex) else a


def _m_imag(a):
    return a.imag if isinstance(a, complex) else 0.0


def _m_arg(a):
    return cmath.phase(a) if isinstance(a, complex) else math.atan2(0.0, a)


_MATH_HELPERS = {
    "abs": _m_abs, "sqrt": _m_sqrt, "exp": _m_exp, "log": _m_log,
    "sin": _m_sin, "cos": _m_cos, "tan": _m_tan, "atan": _m_atan,
    "atan2": _m_atan2, "hypot": _m_hypot, "floor": _m_floor,
    "ceil": _m_ceil, "round": _m_round, "fix": _m_fix, "sign": _m_sign,
    "mod": _m_mod, "rem": _m_rem, "pow": _m_pow, "conj": _m_conj,
    "real": _m_real, "imag": _m_imag, "arg": _m_arg,
}


def _oob(name, size, index, extent):
    raise SimulationError(
        f"index {index} (extent {extent}) out of bounds for "
        f"array {name!r} of size {size} — generated code "
        "is invalid")


def _stepfail():
    raise SimulationError("simulation step limit exceeded "
                          "(infinite loop in generated code?)")


_BASE_NS = {
    "_np": np,
    "_fromnp": from_numpy,
    "_idiv": _idiv,
    "_fdiv": _fdiv,
    "_remop": _rem_op,
    "_powop": c_pow,
    "_cmag2": _cmag2,
    "_npmin": np.minimum,
    "_npmax": np.maximum,
    "_npabs": np.abs,
    "_npconj": np.conj,
    "_npsum": np.add.reduce,
    "_npamin": np.minimum.reduce,
    "_npamax": np.maximum.reduce,
    "_npf32": np.float32,
    "_splat": _splat,
    "_oob": _oob,
    "_stepfail": _stepfail,
    "SimulationError": SimulationError,
}
_BASE_NS.update({f"_m_{name}": fn for name, fn in _MATH_HELPERS.items()})


#: Vector BinOp ops whose numpy form broadcasts a dtype scalar operand
#: exactly like a splatted array (``pow`` is left out: numpy swaps in
#: ``square`` / ``sqrt`` for some scalar exponents).
_SCALAR_OPERAND_BINOPS = frozenset(
    ("add", "sub", "mul", "div", "min", "max",
     "eq", "ne", "lt", "le", "gt", "ge"))

_COMPARISONS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
                "ge": ">="}


def _is_splat(expr: ir.Expr) -> bool:
    return isinstance(expr, ir.IntrinsicCall) and \
        expr.instruction.operation == "vsplat"


def _scalar_operands(rule: tuple, args: list[ir.Expr]) -> list[bool]:
    """Which operands of a vector op are splats that may read as dtype
    scalars, by the op's ``Operation.splats`` ``rule``.

    Every numpy operation the op performs must keep one array operand,
    or its result would be a scalar instead of a vector: operand k reads
    as a scalar only while one of ``rule[k]`` stays a vector."""
    if not rule:
        return [False] * len(args)
    splat = [_is_splat(arg) for arg in args]
    return [splat[k] and not all(splat[j] for j in vectors)
            for k, vectors in enumerate(rule)]


def _raises_return(body: list[ir.Stmt]) -> bool:
    return any(isinstance(s, ir.Return) for s in ir.walk_statements(body))


def _can_abrupt(stmt: ir.Stmt) -> bool:
    """Can executing ``stmt`` abort the enclosing statement list?"""
    if isinstance(stmt, (ir.Break, ir.Continue, ir.Return)):
        return True
    if isinstance(stmt, ir.If):
        return any(_can_abrupt(s)
                   for s in stmt.then_body + stmt.else_body)
    if isinstance(stmt, (ir.ForRange, ir.While)):
        # Loops swallow Break/Continue but a Return propagates out.
        return _raises_return(stmt.body)
    return False


def _assigned_names(body: list[ir.Stmt]) -> set[str]:
    names: set[str] = set()
    for stmt in ir.walk_statements(body):
        if isinstance(stmt, ir.AssignVar):
            names.add(stmt.name)
        elif isinstance(stmt, ir.Call):
            names.update(stmt.results)
        elif isinstance(stmt, ir.ForRange):
            names.add(stmt.var)
    return names


_SANITIZE = re.compile(r"\W")


class _FuncCodegen:
    """Translates one IRFunction into Python source + helper namespace.

    Expression and statement translators take ``terms``, the cost-term
    multiset of the charge point the code they emit belongs to, and add
    their own terms to it."""

    def __init__(self, program: "CompiledProgram", func: ir.IRFunction):
        self.program = program
        self.func = func
        self.ns: dict[str, object] = dict(_BASE_NS)
        self.ns["_p"] = program.counts
        self.ns["_t"] = program.steps
        self.ns["_MS"] = program.max_steps
        self._uid = 0
        #: Source line of the statement currently being translated; its
        #: terms, conditionally evaluated ones included, carry this line.
        self._cur_line = 0
        # Scalars written by Call statements must live in the S dict so
        # the callee-invocation helper can update them; everything else
        # becomes a plain Python local of the generated function.
        self.dict_scalars: set[str] = set()
        array_names = set(func.array_names())
        for stmt in ir.walk_statements(func.body):
            if isinstance(stmt, ir.Call):
                self.dict_scalars.update(
                    name for name in stmt.results if name not in array_names)
        self.array_names = array_names
        self._locals: dict[str, str] = {}
        self._local_taken: set[str] = set()
        self._arrays_used: dict[str, str] = {}

    # -- naming --------------------------------------------------------

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def local(self, name: str) -> str:
        alias = self._locals.get(name)
        if alias is None:
            alias = "v_" + _SANITIZE.sub("_", name)
            while alias in self._local_taken:
                alias += f"_{self.uid()}"
            self._local_taken.add(alias)
            self._locals[name] = alias
        return alias

    def array(self, name: str) -> str:
        alias = self._arrays_used.get(name)
        if alias is None:
            alias = "g_" + _SANITIZE.sub("_", name)
            while alias in self._local_taken:
                alias += f"_{self.uid()}"
            self._local_taken.add(alias)
            self._arrays_used[name] = alias
        return alias

    def bind(self, prefix: str, value) -> str:
        name = f"{prefix}{self.uid()}"
        self.ns[name] = value
        return name

    # -- accounting ----------------------------------------------------

    def charge(self, terms: Counter, *term) -> None:
        """One occurrence of ``term`` on the current statement's line."""
        terms[self._cur_line, term] += 1

    def flush(self, terms: Counter, times: str = "1") -> list[str]:
        """The counter update that charges ``terms`` as a new charge
        point ``times`` times (none for an empty multiset)."""
        if not terms:
            return []
        return [f"_p[{self.program.point(terms)}] += {times}"]

    # -- static int analysis (lets Load/Store skip int() conversions) --

    def _is_int(self, expr: ir.Expr, intvars: set[str]) -> bool:
        if isinstance(expr, ir.Const):
            return isinstance(expr.value, int) and \
                not isinstance(expr.value, bool)
        if isinstance(expr, ir.VarRef):
            return expr.name in intvars
        if isinstance(expr, ir.BinOp):
            if expr.op in ("add", "sub", "mul", "min", "max"):
                return self._is_int(expr.left, intvars) and \
                    self._is_int(expr.right, intvars)
            if expr.op == "div":
                return isinstance(expr.type, ScalarType) and \
                    expr.type.kind.is_integer
            return False
        if isinstance(expr, ir.UnOp):
            return expr.op == "neg" and self._is_int(expr.operand, intvars)
        if isinstance(expr, ir.Cast):
            return isinstance(expr.type, ScalarType) and \
                expr.type.kind.is_integer
        if isinstance(expr, ir.Load):
            declared = self.func.local_type(expr.array)
            return isinstance(declared, ArrayType) and \
                declared.elem.kind.is_integer
        return False

    def _real_code(self, expr: ir.Expr, code: str, intvars: set[str],
                   kind: ScalarKind) -> str:
        """``code`` as a value of ``kind``.

        A real-typed slot can still hold a complex at run time (``c_pow``
        of a negative base and a fractional exponent returns one), and
        casts and splats to a real kind keep its real part; only a
        provably real operand skips ``.real``."""
        if kind.is_complex or self._is_int(expr, intvars):
            return code
        if isinstance(expr, ir.Const):
            if not isinstance(expr.value, complex):
                return code
        elif isinstance(expr, (ir.Load, ir.Cast)) and \
                not expr.type.is_complex:
            return code
        return f"({code}).real"

    def int_code(self, expr: ir.Expr, intvars: set[str],
                 terms: Counter) -> str:
        code = self.expr(expr, intvars, terms)
        if self._is_int(expr, intvars):
            return code
        return f"int({code})"

    # -- expressions ---------------------------------------------------

    def _is_complex(self, expr: ir.Expr) -> bool:
        """Is ``expr`` a complex scalar (a non-scalar counts as real)?"""
        return isinstance(expr.type, ScalarType) and expr.type.is_complex

    def _array_info(self, name: str):
        declared = self.func.local_type(name)
        if isinstance(declared, ArrayType):
            return declared
        return None

    def _load_conv(self, name: str) -> str:
        declared = self._array_info(name)
        if declared is None:
            return "_fromnp"
        kind = declared.elem.kind
        if kind.is_complex:
            return "complex"
        if kind is ScalarKind.BOOL:
            return "bool"
        if kind.is_integer:
            return "int"
        return "float"

    def _size_code(self, name: str, alias: str) -> str:
        declared = self._array_info(name)
        return str(declared.numel) if declared is not None \
            else f"{alias}.size"

    def expr(self, e: ir.Expr, intvars: set[str], terms: Counter) -> str:
        """The Python expression of ``e``; its terms go to ``terms``."""
        if isinstance(e, ir.Const):
            return self._const_code(e.value)
        if isinstance(e, ir.VarRef):
            if e.name in self.dict_scalars:
                return f"S[{e.name!r}]"
            return self.local(e.name)
        if isinstance(e, ir.Load):
            return self._load_expr(e, intvars, terms)
        if isinstance(e, ir.BinOp):
            return self._binop_expr(e, intvars, terms)
        if isinstance(e, ir.UnOp):
            code = self.expr(e.operand, intvars, terms)
            self.charge(terms, "unop", e.op, self._is_complex(e))
            if e.op == "neg":
                return f"(-{code})"
            return f"(not bool({code}))"
        if isinstance(e, ir.MathCall):
            return self._math_expr(e, intvars, terms)
        if isinstance(e, ir.Cast):
            code = self.expr(e.operand, intvars, terms)
            self.charge(terms, "cast")
            kind = e.type.kind
            if kind.is_complex:
                return f"complex({code})"
            code = self._real_code(e.operand, code, intvars, kind)
            return _REAL_CASTS[kind].format(code)
        if isinstance(e, ir.MakeComplex):
            rcode = self.expr(e.real, intvars, terms)
            icode = self.expr(e.imag, intvars, terms)
            self.charge(terms, "move")
            self.charge(terms, "move")
            return f"complex({rcode}, {icode})"
        if isinstance(e, ir.VecLoad):
            return self._vecload_expr(e, intvars, terms)
        if isinstance(e, ir.IntrinsicCall):
            return self._intrinsic_expr(e, intvars, terms)
        raise SimulationError(f"cannot evaluate {type(e).__name__}")

    def _const_code(self, value) -> str:
        if isinstance(value, bool):
            return repr(value)
        if isinstance(value, int):
            return repr(value)
        if isinstance(value, float) and math.isfinite(value):
            return repr(value)
        return self.bind("_k", value)

    def _load_expr(self, e: ir.Load, intvars, terms):
        idx = self.int_code(e.index, intvars, terms)
        self.charge(terms, "load", self._is_complex(e))
        alias = self.array(e.array)
        size = self._size_code(e.array, alias)
        conv = self._load_conv(e.array)
        j = f"_j{self.uid()}"
        return (f"({conv}({alias}[{j}]) "
                f"if 0 <= ({j} := {idx}) < {size} "
                f"else _oob({e.array!r}, {size}, {j}, 1))")

    def _binop_expr(self, e: ir.BinOp, intvars, terms):
        op = e.op
        if op in ("land", "lor"):
            self.charge(terms, "binop", op, self._is_complex(e.left))
            lcode = self.expr(e.left, intvars, terms)
            right = Counter()
            rcode = self.expr(e.right, intvars, right)
            if right:
                # Right side only evaluated (and charged) on demand.
                k = self.program.point(right)
                rcode = f"(_p.__setitem__({k}, _p[{k}] + 1), {rcode})[1]"
            joiner = "and" if op == "land" else "or"
            return f"(bool({lcode}) {joiner} bool({rcode}))"

        is_vector = isinstance(e.type, VectorType)
        if is_vector:
            rule = BINARY_SPLATS if op in _SCALAR_OPERAND_BINOPS else ()
            lcode, rcode = self._vec_operands(rule, [e.left, e.right],
                                              intvars, terms)
        else:
            lcode = self.expr(e.left, intvars, terms)
            rcode = self.expr(e.right, intvars, terms)
            self.charge(terms, "binop", op, self._is_complex(e.left))
        if op == "add":
            return f"({lcode} + {rcode})"
        if op == "sub":
            return f"({lcode} - {rcode})"
        if op == "mul":
            return f"({lcode} * {rcode})"
        if op == "div":
            if isinstance(e.type, ScalarType) and e.type.kind.is_integer:
                return f"_idiv({lcode}, {rcode})"
            return f"_fdiv({lcode}, {rcode})"
        if op == "pow":
            return f"_powop({lcode}, {rcode})"
        if op == "rem":
            return f"_remop({lcode}, {rcode})"
        if op == "min":
            return f"_npmin({lcode}, {rcode})" if is_vector \
                else f"min({lcode}, {rcode})"
        if op == "max":
            return f"_npmax({lcode}, {rcode})" if is_vector \
                else f"max({lcode}, {rcode})"
        comparison = _COMPARISONS.get(op)
        if comparison is None:
            raise SimulationError(f"unknown binary op {op!r}")
        return f"({lcode} {comparison} {rcode})"

    def _math_expr(self, e: ir.MathCall, intvars, terms):
        if e.name not in _MATH_HELPERS:
            raise SimulationError(f"unknown math function {e.name!r}")
        parts = [self.expr(a, intvars, terms) for a in e.args]
        self.charge(terms, "math", e.name,
                    bool(e.args) and self._is_complex(e.args[0]))
        return f"_m_{e.name}({', '.join(parts)})"

    def _vec_operands(self, rule: tuple, args: list[ir.Expr], intvars,
                      terms):
        """Codes of the operands of a vector op, with no numpy temporary
        per operand: the op builds a fresh array, so a ``VecLoad`` reads
        as a slice view, and a splat reads as a dtype scalar wherever
        numpy can broadcast it (see ``_scalar_operands``)."""
        codes = []
        for arg, scalar in zip(args, _scalar_operands(rule, args)):
            if isinstance(arg, ir.VecLoad):
                code = self._vecload_expr(arg, intvars, terms, view=True)
            elif scalar:  # a vsplat custom instruction
                code = self._intrinsic_expr(arg, intvars, terms,
                                            scalar=True)
            else:
                code = self.expr(arg, intvars, terms)
            codes.append(code)
        return codes

    def _lane_scalar(self, splat: ir.IntrinsicCall, code: str,
                     intvars) -> str:
        """The dtype scalar a splat of operand ``code`` fills its lanes
        with."""
        kind = splat.type.elem.kind
        dt = self.bind("_dt", numpy_dtype(kind))
        return f"{dt}({self._real_code(splat.args[0], code, intvars, kind)})"

    def _splat_code(self, splat: ir.IntrinsicCall, code: str,
                    intvars) -> str:
        """A standalone splat: a fresh lane array, filled in place."""
        kind = splat.type.elem.kind
        dt = self.bind("_dt", numpy_dtype(kind))
        value = self._real_code(splat.args[0], code, intvars, kind)
        return f"_splat({splat.type.lanes}, {value}, {dt})"

    def _vecload_expr(self, e: ir.VecLoad, intvars, terms,
                      view: bool = False):
        base = self.int_code(e.base, intvars, terms)
        if e.instruction is not None:
            self.charge(terms, "intrinsic", e.instruction.name)
        lanes = e.type.lanes
        alias = self.array(e.array)
        size = self._size_code(e.array, alias)
        j = f"_j{self.uid()}"
        slice_code = f"{alias}[{j}:{j} + {lanes}]"
        if e.reverse:
            slice_code += "[::-1]"
        if not view:
            slice_code += ".copy()"
        return (f"({slice_code} "
                f"if 0 <= ({j} := {base}) <= {size} - {lanes} "
                f"else _oob({e.array!r}, {size}, {j}, {lanes}))")

    def _intrinsic_expr(self, e: ir.IntrinsicCall, intvars, terms,
                        scalar: bool = False):
        """``scalar``: a vsplat operand that may read as a dtype scalar."""
        instr = e.instruction
        op = OPERATIONS[instr.operation]
        a = self._vec_operands(op.splats, e.args, intvars, terms)
        self.charge(terms, "intrinsic", instr.name)
        if op.tag == "vsplat":
            splat = self._lane_scalar if scalar else self._splat_code
            return splat(e, a[0], intvars)
        if op.sim is None:
            raise SimulationError(
                f"intrinsic operation {op.tag!r} is not an expression")
        return op.sim.format(*a)

    # -- statements ----------------------------------------------------

    def stmt(self, s: ir.Stmt, intvars: set[str], terms: Counter):
        """The lines of ``s``; its unconditional terms go to ``terms``."""
        self._cur_line = s.line
        if isinstance(s, ir.AssignVar):
            return self._assign_stmt(s, intvars, terms)
        if isinstance(s, ir.Store):
            return self._store_stmt(s, intvars, terms)
        if isinstance(s, ir.VecStore):
            return self._vecstore_stmt(s, intvars, terms)
        if isinstance(s, ir.ForRange):
            return self._for_stmt(s, intvars, terms)
        if isinstance(s, ir.While):
            return self._while_stmt(s, intvars)
        if isinstance(s, ir.If):
            return self._if_stmt(s, intvars, terms)
        if isinstance(s, ir.Break):
            return ["break"]
        if isinstance(s, ir.Continue):
            return ["continue"]
        if isinstance(s, ir.Return):
            return self.epilogue_lines() + ["return"]
        if isinstance(s, ir.Call):
            return self._call_stmt(s, intvars, terms)
        if isinstance(s, ir.Emit):
            return self._emit_stmt(s, intvars, terms)
        if isinstance(s, ir.CopyArray):
            return self._copy_stmt(s, terms)
        raise SimulationError(
            f"cannot execute statement {type(s).__name__}")

    def _assign_stmt(self, s: ir.AssignVar, intvars, terms):
        is_int = self._is_int(s.value, intvars)
        code = self.expr(s.value, intvars, terms)
        self.charge(terms, "move")
        if s.name in self.dict_scalars:
            line = f"S[{s.name!r}] = {code}"
        else:
            line = f"{self.local(s.name)} = {code}"
        if is_int:
            intvars.add(s.name)
        else:
            intvars.discard(s.name)
        return [line]

    def _store_stmt(self, s: ir.Store, intvars, terms):
        idx = self.int_code(s.index, intvars, terms)
        vcode = self.expr(s.value, intvars, terms)
        self.charge(terms, "store", self._is_complex(s.value))
        alias = self.array(s.array)
        size = self._size_code(s.array, alias)
        j = f"_j{self.uid()}"
        v = f"_v{self.uid()}"
        return [
            f"{j} = {idx}",
            f"{v} = {vcode}",
            f"if not (0 <= {j} < {size}): "
            f"_oob({s.array!r}, {size}, {j}, 1)",
            f"{alias}[{j}] = {v}",
        ]

    def _vecstore_stmt(self, s: ir.VecStore, intvars, terms):
        base = self.int_code(s.base, intvars, terms)
        vcode = self.expr(s.value, intvars, terms)
        if s.instruction is not None:
            self.charge(terms, "intrinsic", s.instruction.name)
        lanes = s.value.type.lanes
        alias = self.array(s.array)
        size = self._size_code(s.array, alias)
        j = f"_j{self.uid()}"
        v = f"_v{self.uid()}"
        return [
            f"{j} = {base}",
            f"{v} = {vcode}",
            f"if not (0 <= {j} <= {size} - {lanes}): "
            f"_oob({s.array!r}, {size}, {j}, {lanes})",
            f"{alias}[{j}:{j} + {lanes}] = {v}",
        ]

    def _for_stmt(self, s: ir.ForRange, intvars, terms):
        start = self.int_code(s.start, intvars, terms)
        stop = self.int_code(s.stop, intvars, terms)

        body_vars = _assigned_names(s.body)
        inner = set(intvars) - body_vars
        loop_var_reassigned = any(
            isinstance(st, ir.AssignVar) and st.name == s.var
            for st in ir.walk_statements(s.body))
        if not loop_var_reassigned:
            inner.add(s.var)

        body_lines, body = self.block(s.body, inner)
        # Loop control (one branch per iteration) belongs to the loop's
        # own line.
        body[s.line, ("branch",)] += 1

        iterations = f"range({start}, {stop}, {s.step})"
        lines = []
        flush = []
        trip = trip_count(s)
        if any(_can_abrupt(st) for st in s.body):
            # An iteration may stop early: charge each one as it starts.
            flush = self.flush(body)
        elif trip is not None:
            # Every iteration charges the same: fold the whole loop into
            # the enclosing group at translate time.
            if trip:
                for key, count in body.items():
                    terms[key] += trip * count
        else:
            # Bounds known on entry: charge trip count x one iteration.
            iterations = f"_r{self.uid()}"
            lines = [f"{iterations} = range({start}, {stop}, {s.step})"]
            lines += self.flush(body, times=f"len({iterations})")

        if s.var in self.dict_scalars:
            lv = f"_i{self.uid()}"
            assign = [f"S[{s.var!r}] = {lv}"]
        else:
            lv = self.local(s.var)
            assign = []
        lines.append(f"for {lv} in {iterations}:")
        suite = flush + assign + body_lines
        lines.extend("    " + l for l in (suite or ["pass"]))

        # Conservatively forget everything the body may have reassigned.
        # The loop variable is only provably int afterwards when it was
        # already int before (a zero-trip loop leaves the old value).
        was_int = s.var in intvars
        intvars.difference_update(body_vars)
        if was_int and not loop_var_reassigned:
            intvars.add(s.var)
        return lines

    def _while_stmt(self, s: ir.While, intvars):
        body_vars = _assigned_names(s.body)
        intvars.difference_update(body_vars)
        # Each condition check (including the final failing one) is a
        # point on the while statement's line.
        check = Counter()
        ccode = self.expr(s.condition, intvars, check)
        self.charge(check, "branch")
        check_flush = self.flush(check)

        body_lines, body = self.block(s.body, set(intvars))

        suite = ["_t[0] += 1", "if _t[0] > _MS: _stepfail()"]
        suite += check_flush
        suite.append(f"if not ({ccode}): break")
        suite += self.flush(body) + body_lines
        return ["while True:"] + ["    " + l for l in suite]

    def _if_stmt(self, s: ir.If, intvars, terms):
        ccode = self.expr(s.condition, intvars, terms)
        self.charge(terms, "branch")

        then_vars = set(intvars)
        then_lines, then_terms = self.block(s.then_body, then_vars)
        then_suite = self.flush(then_terms) + then_lines
        else_vars = set(intvars)
        else_lines, else_terms = self.block(s.else_body, else_vars)
        else_suite = self.flush(else_terms) + else_lines

        lines = [f"if {ccode}:"]
        lines.extend("    " + l for l in (then_suite or ["pass"]))
        if else_suite:
            lines.append("else:")
            lines.extend("    " + l for l in else_suite)
        intvars.intersection_update(then_vars & else_vars)
        return lines

    def _call_stmt(self, s: ir.Call, intvars, terms):
        self.charge(terms, "call")
        parts = []
        for a in s.args:
            if isinstance(a, str):
                parts.append(f"{self.array(a)}.copy()")
            else:
                parts.append(self.expr(a, intvars, terms))
        program = self.program
        callee = s.callee
        results = list(s.results)

        def invoke(S, A, args):
            cf = program.compiled.get(callee)
            if cf is None:
                raise SimulationError(f"unknown callee {callee!r}")
            outs = cf.call(list(args))
            for name, value in zip(results, outs):
                if isinstance(value, np.ndarray):
                    dst = A.get(name)
                    if dst is None:
                        raise SimulationError(f"unknown array {name!r}")
                    dst[:] = value.reshape(-1, order="F")
                else:
                    S[name] = value
        helper = self.bind("_call", invoke)
        tuple_code = "(" + "".join(p + ", " for p in parts) + ")"
        intvars.difference_update(results)
        return [f"{helper}(S, A, {tuple_code})"]

    def _emit_stmt(self, s: ir.Emit, intvars, terms):
        parts = [self.expr(a, intvars, terms) for a in s.args]
        stdout = self.program.stdout
        fmt = s.format

        def emit(values):
            stdout.append(format_emit(fmt, list(values)))
        helper = self.bind("_emit", emit)
        tuple_code = "(" + "".join(p + ", " for p in parts) + ")"
        return [f"{helper}({tuple_code})"]

    def _copy_stmt(self, s: ir.CopyArray, terms):
        dst_t = self._array_info(s.dst)
        src_t = self._array_info(s.src)
        dalias = self.array(s.dst)
        salias = self.array(s.src)
        if dst_t is not None and src_t is not None:
            count = min(dst_t.numel, src_t.numel)
            if count:
                terms[s.line, ("copy", dst_t.elem.kind.is_complex)] += count
            return [f"{dalias}[:{count}] = {salias}[:{count}]"]
        # Shapes unknown at compile time: the element count is known
        # only at run time, and so is the element kind.
        real, cplx = (self.program.point({(s.line, ("copy", is_complex)): 1})
                      for is_complex in (False, True))
        n = f"_n{self.uid()}"
        return [f"{n} = min({dalias}.size, {salias}.size)",
                f"_p[{cplx} if {dalias}.dtype.kind == 'c' else {real}] "
                f"+= {n}",
                f"{dalias}[:{n}] = {salias}[:{n}]"]

    # -- blocks and function assembly ----------------------------------

    def block(self, body: list[ir.Stmt], intvars: set[str]):
        """Emit a statement list; return its lines and the terms of its
        leading statement group.

        The leading group (everything up to and including the first
        statement that can abort the block) is charged by the caller;
        each later group is a point of its own, so a Break / Continue /
        Return mid-block never over-charges.
        """
        groups: list[tuple[list[str], Counter]] = []
        lines: list[str] = []
        terms = Counter()
        for s in body:
            lines.extend(self.stmt(s, intvars, terms))
            if _can_abrupt(s):
                groups.append((lines, terms))
                lines, terms = [], Counter()
        if lines or terms:
            groups.append((lines, terms))
        if not groups:
            return [], Counter()
        lines = list(groups[0][0])
        for glines, gterms in groups[1:]:
            lines.extend(self.flush(gterms))
            lines.extend(glines)
        return lines, groups[0][1]

    def epilogue_lines(self) -> list[str]:
        """Write scalar outputs held in locals back to S before leaving."""
        lines = []
        for out in self.func.outputs:
            if isinstance(out.type, ArrayType) or \
                    out.name in self.dict_scalars:
                continue
            alias = self.local(out.name)
            lines.append("try:")
            lines.append(f"    S[{out.name!r}] = {alias}")
            lines.append("except NameError:")
            lines.append("    pass")
        return lines

    def build(self):
        func = self.func
        intvars = {p.name for p in func.params
                   if isinstance(p.type, ScalarType)
                   and p.type.kind.is_integer}
        body_lines, terms = self.block(func.body, intvars)
        body_lines = self.flush(terms) + body_lines + self.epilogue_lines()

        prologue = []
        for param in func.params:
            if isinstance(param.type, ScalarType) and \
                    param.name not in self.dict_scalars and \
                    param.name in self._locals:
                prologue.append(
                    f"{self._locals[param.name]} = S[{param.name!r}]")
        for name, alias in self._arrays_used.items():
            prologue.append(f"{alias} = A[{name!r}]")

        suite = prologue + body_lines or ["pass"]
        source = "def _f(S, A):\n" + "\n".join(
            "    " + line for line in suite)
        code = compile(source, f"<compiled {func.name}>", "exec")
        exec(code, self.ns)
        return self.ns["_f"], source


class CompiledFunction:
    """One IRFunction translated to a directly executable Python function."""

    def __init__(self, program: "CompiledProgram", func: ir.IRFunction):
        self.func = func
        self.fn, self.source = _FuncCodegen(program, func).build()

    def call(self, args: list[object]) -> list[object]:
        func = self.func
        if len(args) != len(func.params):
            raise SimulationError(
                f"{func.name}: expected {len(func.params)} arguments, "
                f"got {len(args)}")
        scalars: dict[str, object] = {}
        arrays: dict[str, np.ndarray] = {}
        for param, value in zip(func.params, args):
            if isinstance(param.type, ArrayType):
                arrays[param.name] = as_buffer(value, param.type,
                                               param.name)
            else:
                scalars[param.name] = coerce_scalar(value, param.type)
        for name, ir_type in func.locals.items():
            if isinstance(ir_type, ArrayType):
                arrays[name] = np.zeros(
                    ir_type.numel, dtype=numpy_dtype(ir_type.elem.kind))
        for out in func.outputs:
            if isinstance(out.type, ArrayType) and out.name not in arrays:
                arrays[out.name] = np.zeros(
                    out.type.numel, dtype=numpy_dtype(out.type.elem.kind))

        try:
            # A value past single range rounds to +-Inf when narrowed
            # into a single scalar or array element, as the emitted C's
            # float stores do; numpy's cast warning is not an error.
            with np.errstate(over="ignore"):
                self.fn(scalars, arrays)
        except SimulationError:
            raise
        except KeyError as exc:
            raise SimulationError(
                f"read of unassigned variable {exc.args[0]!r}") from exc
        except NameError as exc:
            raise SimulationError(
                f"read of unassigned variable in {func.name}: "
                f"{exc}") from exc

        outputs: list[object] = []
        for out in func.outputs:
            if isinstance(out.type, ArrayType):
                shaped = arrays[out.name].reshape(
                    (out.type.rows, out.type.cols), order="F")
                outputs.append(shaped.copy())
            else:
                value = scalars.get(out.name)
                if value is None:
                    raise SimulationError(
                        f"{func.name}: output {out.name!r} never assigned")
                outputs.append(value)
        return outputs


class CompiledProgram:
    """A whole IRModule translated once, reusable across many runs.

    The translation reads no processor: it records the cost terms of
    every charge point in :attr:`points`, and a run only counts how
    often each point executes.  ``processor`` prices each point once,
    here, and :meth:`run` turns the counts into a report.
    """

    def __init__(self, module: ir.IRModule,
                 processor: ProcessorDescription,
                 max_steps: int = 200_000_000):
        self.module = module
        self.processor = processor
        self.max_steps = max_steps
        #: Cost terms of each charge point: ``(source line, term)`` ->
        #: occurrences per execution of the point.
        self.points: list[dict[tuple[int, tuple], int]] = []
        #: Executions of each charge point in the current run.
        self.counts: list[int] = []
        self.steps: list[int] = [0]
        self.stdout: list[str] = []
        self.compiled: dict[str, CompiledFunction] = {}
        for func in module.functions:
            self.compiled[func.name] = CompiledFunction(self, func)
        cost = CostModel(processor)
        self.priced = [cost.price(terms) for terms in self.points]

    def point(self, terms: dict) -> int:
        """Register a charge point with ``terms``; return its index."""
        self.points.append(dict(terms))
        self.counts.append(0)
        return len(self.points) - 1

    def _reset(self) -> None:
        self.counts[:] = [0] * len(self.counts)
        self.steps[0] = 0
        self.stdout.clear()

    def run(self, args: list[object], entry: str | None = None,
            hotspots: bool = False) -> ExecutionResult:
        """One run; ``hotspots`` also prices its per-line cycles."""
        self._reset()
        name = entry or self.module.entry
        cf = self.compiled.get(name)
        if cf is None:
            raise SimulationError(f"no function {name!r}")
        outputs = cf.call(list(args))
        priced = self.priced
        charged = [(n, priced[k]) for k, n in enumerate(self.counts) if n]
        return ExecutionResult(
            outputs=outputs, report=cycle_report(charged),
            stdout="".join(self.stdout),
            line_cycles=line_cycles(charged) if hotspots else None)

    def dump_source(self, name: str | None = None) -> str:
        """Generated Python of one function (debugging aid)."""
        cf = self.compiled[name or self.module.entry]
        return cf.source
