"""Compiled-closure executor: the ASIP cycle simulator.

Each :class:`~repro.ir.nodes.IRFunction` is translated once into one
real Python function (``ForRange`` becomes a ``range`` loop,
expressions become inline Python expressions, custom instructions
become pre-resolved operations), compiled with ``exec`` against a
namespace of pre-bound helper closures, and reused for every
subsequent run.

Cost semantics (every cost comes from the processor's
:class:`~repro.sim.cost.CostModel`):

* ``move``: an ``AssignVar``, a ``VecSplat``, and two per
  ``MakeComplex``;
* ``mem``: a scalar load or store, and per element of a ``CopyArray``;
* ``alu``: a scalar unary or binary operation (charged once for a
  short-circuiting ``land`` / ``lor``) and a cast; vector operations
  charge only through their custom instruction;
* ``math``: a ``MathCall``;
* ``branch``: an ``If``, every ``for`` iteration, and every ``while``
  condition check including the final failing one;
* ``call``: a user-function call;
* ``intrinsic``: a custom instruction (an ``IntrinsicCall``, or a
  ``VecLoad`` / ``VecStore`` that carries one), which also bumps its
  ``instruction_counts`` entry.

A line-profiled run attributes each charge to the source line of the
statement that incurs it; loop control belongs to the loop's own line.
``tests/cycle_pins.json`` pins the resulting reports.

Cycle accounting is batched per basic block: during translation the
static portion of every straight-line statement group (costs that are
charged unconditionally whenever the group executes) is folded into a
handful of counter increments emitted once at the head of the group,
instead of one charge per node visit.  Conditionally evaluated work
(the right-hand side of a short-circuiting ``land`` / ``lor``, ``If``
branches, ``while`` bodies) keeps its own flush, so a category or
instruction that never executes leaves no key in the report.

Loops are charged once per loop, not per iteration.  A ``ForRange``
whose body holds no statement that can cut an iteration short (a
``Break``, ``Continue`` or ``Return``) charges the same every
iteration: the body's leading group plus the loop branch.  With
constant bounds, trip count x that charge is folded into the enclosing
group at translate time, so a whole constant nest such as ``matmul``
costs one flush; with run-time bounds, the generated code binds the
``range`` once and charges ``len(range)`` x the charge under
``if range:`` ahead of the loop, so a zero-trip loop creates no
counter key.  The per-line costs of a line profile are scaled the same
way.  A loop whose iterations can stop early flushes at the head of
each iteration.

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

import numpy as np

from repro.asip.model import ProcessorDescription
from repro.errors import SimulationError
from repro.numeric import c_pow
from repro.ir import nodes as ir
from repro.ir.types import ArrayType, ScalarKind, ScalarType, VectorType
from repro.sim.cost import CostModel, CycleReport
from repro.sim.machine import (
    ExecutionResult,
    as_buffer,
    coerce_scalar,
    format_emit,
    from_numpy,
    numpy_dtype,
)

#: Fixed counter slots for batched accounting, one per
#: ``CycleReport.by_category`` key.
_CATEGORIES = ("move", "mem", "branch", "alu", "math", "call", "intrinsic")
_MOVE, _MEM, _BRANCH, _ALU, _MATH, _CALL, _INTR = range(len(_CATEGORIES))


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
_SCALAR_OPERAND_INTRINSICS = frozenset(
    ("vadd", "vsub", "vmul", "vdiv", "vmin", "vmax"))


def _is_splat(expr: ir.Expr) -> bool:
    return isinstance(expr, ir.VecSplat) or (
        isinstance(expr, ir.IntrinsicCall)
        and expr.instruction.operation == "vsplat")


def _scalar_operands(op: str, args: list[ir.Expr]) -> list[bool]:
    """Which operands of vector op ``op`` are splats that may read as
    dtype scalars.

    Every numpy operation the op performs must keep one array operand,
    or its result would be a scalar instead of a vector."""
    splat = [_is_splat(arg) for arg in args]
    if op == "vmac":  # a + b * c
        a, b, c = splat
        return [a and not (b and c), b and not c, c and not b]
    if len(args) == 2 and (op in _SCALAR_OPERAND_BINOPS
                           or op in _SCALAR_OPERAND_INTRINSICS):
        left, right = splat
        return [left and not right, right and not left]
    return [False] * len(args)


def _merge(dst: dict, src: dict) -> None:
    for key, value in src.items():
        dst[key] = dst.get(key, 0) + value


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
    """Translates one IRFunction into Python source + helper namespace."""

    def __init__(self, program: "CompiledProgram", func: ir.IRFunction):
        self.program = program
        self.func = func
        self.cost = program.cost
        self.profile = program.profile_lines
        self.ns: dict[str, object] = dict(_BASE_NS)
        self.ns["_a"] = program.acc
        self.ns["_ic"] = program.icounts
        self.ns["_lc"] = program.line_cycles
        self.ns["_t"] = program.steps
        self.ns["_MS"] = program.max_steps
        self.ns["_out"] = program.stdout
        self._uid = 0
        #: Source line of the statement currently being translated;
        #: charge closures capture it so conditionally-evaluated work
        #: attributes to the line of the statement that evaluates it.
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

    def flush_lines(self, static: dict[int, int],
                    counts: dict[str, int],
                    linecost: "dict[int, int] | None" = None,
                    times: str = "") -> list[str]:
        """Counter updates charging one group; ``times`` names a run-time
        multiplier (a loop's trip count) applied to every charge."""
        def amount(value: int) -> str:
            if not times:
                return str(value)
            return times if value == 1 else f"{times} * {value}"
        lines = []
        for index in sorted(static):
            cycles = static[index]
            if cycles:
                lines.append(f"_a[{index}] += {amount(cycles)}")
        for name, count in counts.items():
            lines.append(f"_ic[{name!r}] = _ic.get({name!r}, 0) + "
                         f"{amount(count)}")
        if self.profile and linecost:
            for line in sorted(linecost):
                cycles = linecost[line]
                if cycles:
                    lines.append(f"_lc[{line}] = _lc.get({line}, 0) + "
                                 f"{amount(cycles)}")
        return lines

    def charge_closure(self, static: dict[int, int],
                       counts: dict[str, int]) -> str:
        acc = self.program.acc
        icounts = self.program.icounts
        pairs = [(i, c) for i, c in sorted(static.items()) if c]
        cpairs = list(counts.items())
        line_cycles = self.program.line_cycles if self.profile else None
        line = self._cur_line
        total = sum(c for _, c in pairs)

        def charge():
            for index, cycles in pairs:
                acc[index] += cycles
            for name, count in cpairs:
                icounts[name] = icounts.get(name, 0) + count
            if line_cycles is not None and total:
                line_cycles[line] = line_cycles.get(line, 0) + total
        return self.bind("_chg", charge)

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
                 static: dict, counts: dict) -> str:
        code, est, ecn = self.expr(expr, intvars)
        _merge(static, est)
        _merge(counts, ecn)
        if self._is_int(expr, intvars):
            return code
        return f"int({code})"

    # -- expressions ---------------------------------------------------

    def _scalar_type(self, expr: ir.Expr) -> ScalarType:
        if isinstance(expr.type, ScalarType):
            return expr.type
        return ScalarType(ScalarKind.F64)

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

    def expr(self, e: ir.Expr, intvars: set[str]):
        """Return ``(code, static_charges, static_instruction_counts)``."""
        if isinstance(e, ir.Const):
            return self._const_code(e.value), {}, {}
        if isinstance(e, ir.VarRef):
            if e.name in self.dict_scalars:
                return f"S[{e.name!r}]", {}, {}
            return self.local(e.name), {}, {}
        if isinstance(e, ir.Load):
            return self._load_expr(e, intvars)
        if isinstance(e, ir.BinOp):
            return self._binop_expr(e, intvars)
        if isinstance(e, ir.UnOp):
            code, static, counts = self.expr(e.operand, intvars)
            _merge(static, {_ALU: self.cost.unop(e.op, self._scalar_type(e))})
            if e.op == "neg":
                return f"(-{code})", static, counts
            return f"(not bool({code}))", static, counts
        if isinstance(e, ir.MathCall):
            return self._math_expr(e, intvars)
        if isinstance(e, ir.Cast):
            code, static, counts = self.expr(e.operand, intvars)
            _merge(static, {_ALU: self.cost.cast()})
            kind = e.type.kind
            if kind.is_complex:
                return f"complex({code})", static, counts
            code = self._real_code(e.operand, code, intvars, kind)
            return _REAL_CASTS[kind].format(code), static, counts
        if isinstance(e, ir.MakeComplex):
            rcode, static, counts = self.expr(e.real, intvars)
            icode, ist, icn = self.expr(e.imag, intvars)
            _merge(static, ist)
            _merge(counts, icn)
            _merge(static, {_MOVE: 2 * self.cost.move()})
            return f"complex({rcode}, {icode})", static, counts
        if isinstance(e, ir.VecLoad):
            return self._vecload_expr(e, intvars)
        if isinstance(e, ir.VecSplat):
            code, static, counts = self.expr(e.operand, intvars)
            _merge(static, {_MOVE: self.cost.move()})
            return (self._splat_code(e, e.operand, code, intvars),
                    static, counts)
        if isinstance(e, ir.IntrinsicCall):
            return self._intrinsic_expr(e, intvars)
        raise SimulationError(f"cannot evaluate {type(e).__name__}")

    def _const_code(self, value) -> str:
        if isinstance(value, bool):
            return repr(value)
        if isinstance(value, int):
            return repr(value)
        if isinstance(value, float) and math.isfinite(value):
            return repr(value)
        return self.bind("_k", value)

    def _load_expr(self, e: ir.Load, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        idx = self.int_code(e.index, intvars, static, counts)
        elem = e.type if isinstance(e.type, ScalarType) \
            else ScalarType(ScalarKind.F64)
        _merge(static, {_MEM: self.cost.load(elem)})
        alias = self.array(e.array)
        size = self._size_code(e.array, alias)
        conv = self._load_conv(e.array)
        j = f"_j{self.uid()}"
        code = (f"({conv}({alias}[{j}]) "
                f"if 0 <= ({j} := {idx}) < {size} "
                f"else _oob({e.array!r}, {size}, {j}, 1))")
        return code, static, counts

    def _binop_expr(self, e: ir.BinOp, intvars):
        op = e.op
        if op in ("land", "lor"):
            static: dict[int, int] = {
                _ALU: self.cost.binop(op, self._scalar_type(e.left))}
            counts: dict[str, int] = {}
            lcode, lst, lcn = self.expr(e.left, intvars)
            _merge(static, lst)
            _merge(counts, lcn)
            rcode, rst, rcn = self.expr(e.right, intvars)
            if rst or rcn:
                # Right side only evaluated (and charged) on demand.
                chg = self.charge_closure(rst, rcn)
                rcode = f"({chg}(), {rcode})[1]"
            joiner = "and" if op == "land" else "or"
            return (f"(bool({lcode}) {joiner} bool({rcode}))",
                    static, counts)

        is_vector = isinstance(e.type, VectorType)
        if is_vector:
            (lcode, rcode), static, counts = self._vec_operands(
                op, [e.left, e.right], intvars)
        else:
            lcode, static, counts = self.expr(e.left, intvars)
            rcode, rst, rcn = self.expr(e.right, intvars)
            _merge(static, rst)
            _merge(counts, rcn)
        if not is_vector:
            _merge(static, {
                _ALU: self.cost.binop(op, self._scalar_type(e.left))})
        if op == "add":
            code = f"({lcode} + {rcode})"
        elif op == "sub":
            code = f"({lcode} - {rcode})"
        elif op == "mul":
            code = f"({lcode} * {rcode})"
        elif op == "div":
            if isinstance(e.type, ScalarType) and e.type.kind.is_integer:
                code = f"_idiv({lcode}, {rcode})"
            else:
                code = f"_fdiv({lcode}, {rcode})"
        elif op == "pow":
            code = f"_powop({lcode}, {rcode})"
        elif op == "rem":
            code = f"_remop({lcode}, {rcode})"
        elif op == "min":
            code = f"_npmin({lcode}, {rcode})" if is_vector \
                else f"min({lcode}, {rcode})"
        elif op == "max":
            code = f"_npmax({lcode}, {rcode})" if is_vector \
                else f"max({lcode}, {rcode})"
        elif op == "eq":
            code = f"({lcode} == {rcode})"
        elif op == "ne":
            code = f"({lcode} != {rcode})"
        elif op == "lt":
            code = f"({lcode} < {rcode})"
        elif op == "le":
            code = f"({lcode} <= {rcode})"
        elif op == "gt":
            code = f"({lcode} > {rcode})"
        elif op == "ge":
            code = f"({lcode} >= {rcode})"
        else:
            raise SimulationError(f"unknown binary op {op!r}")
        return code, static, counts

    def _math_expr(self, e: ir.MathCall, intvars):
        if e.name not in _MATH_HELPERS:
            raise SimulationError(f"unknown math function {e.name!r}")
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        parts = []
        for a in e.args:
            code, ast, acn = self.expr(a, intvars)
            _merge(static, ast)
            _merge(counts, acn)
            parts.append(code)
        operand_t = self._scalar_type(e.args[0]) if e.args \
            else ScalarType(ScalarKind.F64)
        _merge(static, {_MATH: self.cost.math(e.name, operand_t)})
        return f"_m_{e.name}({', '.join(parts)})", static, counts

    def _vec_operands(self, op: str, args: list[ir.Expr], intvars):
        """Codes of the operands of a vector op, with no numpy temporary
        per operand: the op builds a fresh array, so a ``VecLoad`` reads
        as a slice view, and a splat reads as a dtype scalar wherever
        numpy can broadcast it (see ``_scalar_operands``)."""
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        codes = []
        for arg, scalar in zip(args, _scalar_operands(op, args)):
            if isinstance(arg, ir.VecLoad):
                code, ast, acn = self._vecload_expr(arg, intvars, view=True)
            elif scalar and isinstance(arg, ir.VecSplat):
                code, ast, acn = self.expr(arg.operand, intvars)
                _merge(ast, {_MOVE: self.cost.move()})
                code = self._lane_scalar(arg, arg.operand, code, intvars)
            elif scalar:  # a vsplat custom instruction
                code, ast, acn = self._intrinsic_expr(arg, intvars,
                                                      scalar=True)
            else:
                code, ast, acn = self.expr(arg, intvars)
            _merge(static, ast)
            _merge(counts, acn)
            codes.append(code)
        return codes, static, counts

    def _lane_scalar(self, splat: ir.Expr, operand: ir.Expr, code: str,
                     intvars) -> str:
        """The dtype scalar a splat of ``operand`` fills its lanes with."""
        kind = splat.type.elem.kind
        dt = self.bind("_dt", numpy_dtype(kind))
        return f"{dt}({self._real_code(operand, code, intvars, kind)})"

    def _splat_code(self, splat: ir.Expr, operand: ir.Expr, code: str,
                    intvars) -> str:
        """A standalone splat: a fresh lane array, filled in place."""
        kind = splat.type.elem.kind
        dt = self.bind("_dt", numpy_dtype(kind))
        value = self._real_code(operand, code, intvars, kind)
        return f"_splat({splat.type.lanes}, {value}, {dt})"

    def _vecload_expr(self, e: ir.VecLoad, intvars, view: bool = False):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        base = self.int_code(e.base, intvars, static, counts)
        if e.instruction is not None:
            _merge(static,
                   {_INTR: self.cost.intrinsic(e.instruction.cycles)})
            _merge(counts, {e.instruction.name: 1})
        lanes = e.type.lanes
        alias = self.array(e.array)
        size = self._size_code(e.array, alias)
        j = f"_j{self.uid()}"
        slice_code = f"{alias}[{j}:{j} + {lanes}]"
        if e.reverse:
            slice_code += "[::-1]"
        if not view:
            slice_code += ".copy()"
        code = (f"({slice_code} "
                f"if 0 <= ({j} := {base}) <= {size} - {lanes} "
                f"else _oob({e.array!r}, {size}, {j}, {lanes}))")
        return code, static, counts

    def _intrinsic_expr(self, e: ir.IntrinsicCall, intvars,
                        scalar: bool = False):
        """``scalar``: a vsplat operand that may read as a dtype scalar."""
        instr = e.instruction
        op = instr.operation
        a, static, counts = self._vec_operands(op, e.args, intvars)
        _merge(static, {_INTR: self.cost.intrinsic(instr.cycles)})
        _merge(counts, {instr.name: 1})
        if op in ("vadd", "cadd"):
            code = f"({a[0]} + {a[1]})"
        elif op in ("vsub", "csub"):
            code = f"({a[0]} - {a[1]})"
        elif op in ("vmul", "cmul"):
            code = f"({a[0]} * {a[1]})"
        elif op == "vdiv":
            code = f"({a[0]} / {a[1]})"
        elif op in ("vmac", "cmac", "mac"):
            code = f"({a[0]} + {a[1]} * {a[2]})"
        elif op == "vmin":
            code = f"_npmin({a[0]}, {a[1]})"
        elif op == "vmax":
            code = f"_npmax({a[0]}, {a[1]})"
        elif op == "vabs":
            code = f"_npabs({a[0]})"
        elif op == "vneg":
            code = f"(-{a[0]})"
        elif op == "vconj":
            code = f"_npconj({a[0]})"
        elif op == "vsplat" and scalar:
            code = self._lane_scalar(e, e.args[0], a[0], intvars)
        elif op == "vsplat":
            code = self._splat_code(e, e.args[0], a[0], intvars)
        elif op == "vredadd":
            code = f"_fromnp(_npsum({a[0]}))"
        elif op == "vredmin":
            code = f"_fromnp(_npamin({a[0]}))"
        elif op == "vredmax":
            code = f"_fromnp(_npamax({a[0]}))"
        elif op == "cconj":
            code = f"({a[0]}).conjugate()"
        elif op == "cmag2":
            code = f"_cmag2({a[0]})"
        elif op == "clip":
            code = f"min(max({a[0]}, {a[1]}), {a[2]})"
        else:
            raise SimulationError(f"unknown intrinsic operation {op!r}")
        return code, static, counts

    # -- statements ----------------------------------------------------

    def stmt(self, s: ir.Stmt, intvars: set[str]):
        """Return ``(lines, static_charges, static_counts, linecost)``.

        ``linecost`` splits the static cycles by source line: all on the
        statement's own line, except for a loop whose body charges are
        folded into its static ones."""
        self._cur_line = s.line
        if isinstance(s, ir.ForRange):
            return self._for_stmt(s, intvars)
        lines, static, counts = self._stmt(s, intvars)
        return lines, static, counts, {s.line: sum(static.values())}

    def _stmt(self, s: ir.Stmt, intvars: set[str]):
        if isinstance(s, ir.AssignVar):
            return self._assign_stmt(s, intvars)
        if isinstance(s, ir.Store):
            return self._store_stmt(s, intvars)
        if isinstance(s, ir.VecStore):
            return self._vecstore_stmt(s, intvars)
        if isinstance(s, ir.IntrinsicStmt):
            code, static, counts = self.expr(s.call, intvars)
            return [code], static, counts
        if isinstance(s, ir.While):
            return self._while_stmt(s, intvars)
        if isinstance(s, ir.If):
            return self._if_stmt(s, intvars)
        if isinstance(s, ir.Break):
            return ["break"], {}, {}
        if isinstance(s, ir.Continue):
            return ["continue"], {}, {}
        if isinstance(s, ir.Return):
            return self.epilogue_lines() + ["return"], {}, {}
        if isinstance(s, ir.Call):
            return self._call_stmt(s, intvars)
        if isinstance(s, ir.Emit):
            return self._emit_stmt(s, intvars)
        if isinstance(s, ir.CopyArray):
            return self._copy_stmt(s)
        raise SimulationError(
            f"cannot execute statement {type(s).__name__}")

    def _assign_stmt(self, s: ir.AssignVar, intvars):
        is_int = self._is_int(s.value, intvars)
        code, static, counts = self.expr(s.value, intvars)
        _merge(static, {_MOVE: self.cost.move()})
        if s.name in self.dict_scalars:
            line = f"S[{s.name!r}] = {code}"
        else:
            line = f"{self.local(s.name)} = {code}"
        if is_int:
            intvars.add(s.name)
        else:
            intvars.discard(s.name)
        return [line], static, counts

    def _store_stmt(self, s: ir.Store, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        idx = self.int_code(s.index, intvars, static, counts)
        vcode, vst, vcn = self.expr(s.value, intvars)
        _merge(static, vst)
        _merge(counts, vcn)
        elem = s.value.type if isinstance(s.value.type, ScalarType) \
            else ScalarType(ScalarKind.F64)
        _merge(static, {_MEM: self.cost.store(elem)})
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
        ], static, counts

    def _vecstore_stmt(self, s: ir.VecStore, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        base = self.int_code(s.base, intvars, static, counts)
        vcode, vst, vcn = self.expr(s.value, intvars)
        _merge(static, vst)
        _merge(counts, vcn)
        if s.instruction is not None:
            _merge(static,
                   {_INTR: self.cost.intrinsic(s.instruction.cycles)})
            _merge(counts, {s.instruction.name: 1})
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
        ], static, counts

    def _for_stmt(self, s: ir.ForRange, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        start = self.int_code(s.start, intvars, static, counts)
        stop = self.int_code(s.stop, intvars, static, counts)
        linecost = {s.line: sum(static.values())}

        body_vars = _assigned_names(s.body)
        inner = set(intvars) - body_vars
        loop_var_reassigned = any(
            isinstance(st, ir.AssignVar) and st.name == s.var
            for st in ir.walk_statements(s.body))
        if not loop_var_reassigned:
            inner.add(s.var)

        body_lines, bstatic, bcounts, blc = self.block(s.body, inner)
        _merge(bstatic, {_BRANCH: self.cost.branch()})
        # Loop-control overhead (one branch per iteration) attributes
        # to the loop's own line.
        _merge(blc, {s.line: self.cost.branch()})

        iterations = f"range({start}, {stop}, {s.step})"
        lines = []
        flush = []
        if any(_can_abrupt(st) for st in s.body):
            # An iteration may stop early: charge each one as it starts.
            flush = self.flush_lines(bstatic, bcounts, blc)
        elif isinstance(s.start, ir.Const) and isinstance(s.stop, ir.Const):
            # Every iteration charges the same: fold the whole loop into
            # the enclosing group at translate time.
            trip = len(range(int(s.start.value), int(s.stop.value),
                             s.step))
            if trip:
                for charges, total in ((bstatic, static), (bcounts, counts),
                                       (blc, linecost)):
                    _merge(total, {key: trip * value
                                   for key, value in charges.items()})
        else:
            # Bounds known on entry: charge trip count x one iteration.
            iterations, trip = f"_r{self.uid()}", f"_n{self.uid()}"
            lines = [f"{iterations} = range({start}, {stop}, {s.step})",
                     f"if {iterations}:",
                     f"    {trip} = len({iterations})"]
            lines.extend("    " + l for l in self.flush_lines(
                bstatic, bcounts, blc, times=trip))

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
        return lines, static, counts, linecost

    def _while_stmt(self, s: ir.While, intvars):
        body_vars = _assigned_names(s.body)
        intvars.difference_update(body_vars)
        ccode, cstatic, ccounts = self.expr(s.condition, intvars)
        _merge(cstatic, {_BRANCH: self.cost.branch()})
        # Condition check (including the final failing one) belongs to
        # the while statement's line.
        check_flush = self.flush_lines(
            cstatic, ccounts, {s.line: sum(cstatic.values())})

        body_lines, bstatic, bcounts, blc = self.block(s.body,
                                                       set(intvars))
        body_flush = self.flush_lines(bstatic, bcounts, blc)

        suite = ["_t[0] += 1", "if _t[0] > _MS: _stepfail()"]
        suite += check_flush
        suite.append(f"if not ({ccode}): break")
        suite += body_flush + body_lines
        lines = ["while True:"] + ["    " + l for l in suite]
        return lines, {}, {}

    def _if_stmt(self, s: ir.If, intvars):
        ccode, static, counts = self.expr(s.condition, intvars)
        _merge(static, {_BRANCH: self.cost.branch()})

        then_vars = set(intvars)
        then_lines, tst, tcn, tlc = self.block(s.then_body, then_vars)
        then_suite = self.flush_lines(tst, tcn, tlc) + then_lines
        else_vars = set(intvars)
        else_lines, est, ecn, elc = self.block(s.else_body, else_vars)
        else_suite = self.flush_lines(est, ecn, elc) + else_lines

        lines = [f"if {ccode}:"]
        lines.extend("    " + l for l in (then_suite or ["pass"]))
        if else_suite:
            lines.append("else:")
            lines.extend("    " + l for l in else_suite)
        intvars.intersection_update(then_vars & else_vars)
        return lines, static, counts

    def _call_stmt(self, s: ir.Call, intvars):
        static: dict[int, int] = {_CALL: self.cost.call()}
        counts: dict[str, int] = {}
        parts = []
        for a in s.args:
            if isinstance(a, str):
                parts.append(f"{self.array(a)}.copy()")
            else:
                code, ast, acn = self.expr(a, intvars)
                _merge(static, ast)
                _merge(counts, acn)
                parts.append(code)
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
        return [f"{helper}(S, A, {tuple_code})"], static, counts

    def _emit_stmt(self, s: ir.Emit, intvars):
        static: dict[int, int] = {}
        counts: dict[str, int] = {}
        parts = []
        for a in s.args:
            code, ast, acn = self.expr(a, intvars)
            _merge(static, ast)
            _merge(counts, acn)
            parts.append(code)
        stdout = self.program.stdout
        fmt = s.format

        def emit(values):
            stdout.append(format_emit(fmt, list(values)))
        helper = self.bind("_emit", emit)
        tuple_code = "(" + "".join(p + ", " for p in parts) + ")"
        return [f"{helper}({tuple_code})"], static, counts

    def _copy_stmt(self, s: ir.CopyArray):
        dst_t = self._array_info(s.dst)
        src_t = self._array_info(s.src)
        dalias = self.array(s.dst)
        salias = self.array(s.src)
        if dst_t is not None and src_t is not None:
            count = min(dst_t.numel, src_t.numel)
            elem_kind = ScalarKind.C128 if dst_t.elem.kind.is_complex \
                else ScalarKind.F64
            cost = count * self.cost.copy_element(ScalarType(elem_kind))
            return ([f"{dalias}[:{count}] = {salias}[:{count}]"],
                    {_MEM: cost}, {})
        # Shapes unknown at compile time: fall back to a dynamic helper.
        acc = self.program.acc
        cost_model = self.cost
        line_cycles = self.program.line_cycles if self.profile else None
        line = self._cur_line

        def copy(dst, src):
            count = min(dst.size, src.size)
            elem_kind = ScalarKind.C128 if np.iscomplexobj(dst) \
                else ScalarKind.F64
            cost = count * cost_model.copy_element(ScalarType(elem_kind))
            acc[_MEM] += cost
            if line_cycles is not None:
                line_cycles[line] = line_cycles.get(line, 0) + cost
            dst[:count] = src[:count]
        helper = self.bind("_cpy", copy)
        return [f"{helper}({dalias}, {salias})"], {}, {}

    # -- blocks and function assembly ----------------------------------

    def block(self, body: list[ir.Stmt], intvars: set[str]):
        """Emit a statement list.

        Static charges of the leading statement group (everything up to
        and including the first statement that can abort the block) are
        hoisted to the caller; later groups flush inline, so a Break /
        Continue / Return mid-block never over-charges.  When line
        profiling is on, each group also carries a per-source-line
        breakdown of the same static cycles.
        """
        groups: list[tuple[list[str], dict, dict, dict]] = []
        cur_lines: list[str] = []
        cur_static: dict[int, int] = {}
        cur_counts: dict[str, int] = {}
        cur_lc: dict[int, int] = {}
        for s in body:
            slines, sst, scn, slc = self.stmt(s, intvars)
            _merge(cur_static, sst)
            _merge(cur_counts, scn)
            _merge(cur_lc, slc)
            cur_lines.extend(slines)
            if _can_abrupt(s):
                groups.append((cur_lines, cur_static, cur_counts,
                               cur_lc))
                cur_lines, cur_static, cur_counts, cur_lc = \
                    [], {}, {}, {}
        if cur_lines or cur_static or cur_counts:
            groups.append((cur_lines, cur_static, cur_counts, cur_lc))
        if not groups:
            return [], {}, {}, {}
        lines = list(groups[0][0])
        for glines, gst, gcn, glc in groups[1:]:
            lines.extend(self.flush_lines(gst, gcn, glc))
            lines.extend(glines)
        return lines, groups[0][1], groups[0][2], groups[0][3]

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
        body_lines, static, counts, linecost = self.block(func.body,
                                                          intvars)
        body_lines = self.flush_lines(static, counts, linecost) + \
            body_lines
        body_lines += self.epilogue_lines()

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
    """A whole IRModule translated once, reusable across many runs."""

    def __init__(self, module: ir.IRModule,
                 processor: ProcessorDescription,
                 max_steps: int = 200_000_000,
                 profile_lines: bool = False):
        self.module = module
        self.processor = processor
        self.cost = CostModel(processor)
        self.max_steps = max_steps
        self.profile_lines = profile_lines
        self.acc: list[int] = [0] * len(_CATEGORIES)
        self.icounts: dict[str, int] = {}
        self.line_cycles: dict[int, int] = {}
        self.steps: list[int] = [0]
        self.stdout: list[str] = []
        self.compiled: dict[str, CompiledFunction] = {}
        for func in module.functions:
            self.compiled[func.name] = CompiledFunction(self, func)

    def _reset(self) -> None:
        acc = self.acc
        for index in range(len(acc)):
            acc[index] = 0
        self.icounts.clear()
        self.line_cycles.clear()
        self.steps[0] = 0
        self.stdout.clear()

    def run(self, args: list[object],
            entry: str | None = None) -> ExecutionResult:
        self._reset()
        name = entry or self.module.entry
        cf = self.compiled.get(name)
        if cf is None:
            raise SimulationError(f"no function {name!r}")
        outputs = cf.call(list(args))
        report = CycleReport(
            total=sum(self.acc),
            by_category={_CATEGORIES[i]: v
                         for i, v in enumerate(self.acc) if v},
            instruction_counts=dict(self.icounts))
        line_cycles = dict(self.line_cycles) if self.profile_lines \
            else None
        return ExecutionResult(outputs=outputs, report=report,
                               stdout="".join(self.stdout),
                               line_cycles=line_cycles)

    def dump_source(self, name: str | None = None) -> str:
        """Generated Python of one function (debugging aid)."""
        cf = self.compiled[name or self.module.entry]
        return cf.source
