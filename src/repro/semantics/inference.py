"""Forward type/shape inference with per-call-site function specialization.

The entry point is :func:`specialize_program`: given a parsed program, an
entry function name, and concrete argument types (the analogue of MATLAB
Coder's ``-args``), it produces a :class:`SpecializedProgram` containing
one :class:`SpecializedFunction` per (function, argument-signature) pair
reached from the entry point.

Inference is a forward abstract interpretation over the AST:

* every expression node gets an :class:`~repro.semantics.types.MType`;
* scalar compile-time constants are propagated (literals, shape queries
  of concretely-shaped arrays, arithmetic on constants) so allocation
  sizes and FFT lengths become static;
* loops run to a type fixpoint (bounded; widening drops constants);
* each ``CallIndex`` is classified as array indexing, builtin call, or
  user call — MATLAB's famous ``f(x)`` ambiguity — and the verdict is
  recorded for the IR builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NoReturn

from repro import numeric
from repro.errors import SemanticError, UnsupportedFeatureError
from repro.frontend import ast_nodes as ast
from repro.frontend.source import SourceFile, Span
from repro.semantics import builtins, library
from repro.semantics.shapes import SCALAR, Shape
from repro.semantics.symbols import Environment, FunctionRegistry
from repro.semantics.types import DType, MType, promote_binary

#: Strict rises one name's type can make while a loop's environment
#: climbs to its fixpoint: first being assigned, then its MType joins
#: (the dtype chain char < logical < double < single < int8 < int16 <
#: int32 rises six times; is_complex, the constant value, rows and cols
#: once each).
_TYPE_LATTICE_HEIGHT = 1 + 6 + 1 + 1 + 2


def _rounds(loop: ast.Stmt):
    """The inference rounds ``loop`` may take.  Most loops stabilize
    within three, so the bound is only worked out past those."""
    yield from range(3)
    yield from range(3, _round_limit(loop))


def _round_limit(loop: ast.Stmt) -> int:
    """Most inference rounds ``loop`` can need: every round but the
    last raises the type of at least one name the loop assigns."""
    assigned = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.For):
            assigned.add(node.var)
        elif isinstance(node, (ast.Assign, ast.MultiAssign)):
            targets = node.targets if isinstance(node, ast.MultiAssign) \
                else [node.target]
            for target in targets:
                while isinstance(target, ast.CallIndex):
                    target = target.target
                if isinstance(target, ast.Identifier):
                    assigned.add(target.name)
    return _TYPE_LATTICE_HEIGHT * len(assigned) + 1


@dataclass
class SpecializedFunction:
    """One function body analyzed under concrete argument types."""

    func: ast.Function
    mangled_name: str
    arg_types: list[MType]
    result_types: list[MType] = field(default_factory=list)
    final_env: Environment = field(default_factory=Environment)
    node_types: dict[int, list[MType]] = field(default_factory=dict)
    call_kinds: dict[int, str] = field(default_factory=dict)
    call_targets: dict[int, str] = field(default_factory=dict)
    #: id(If stmt) -> statically selected branch index (-1 = else body).
    static_branches: dict[int, int] = field(default_factory=dict)


@dataclass
class SpecializedProgram:
    """All specializations reached from the entry point."""

    entry: SpecializedFunction
    functions: dict[str, SpecializedFunction] = field(default_factory=dict)
    source: SourceFile | None = None

    def in_call_order(self) -> list[SpecializedFunction]:
        """Callees first, entry last (stable for deterministic output)."""
        order = [f for key, f in self.functions.items() if f is not self.entry]
        order.append(self.entry)
        return order


def _signature_key(name: str, arg_types: list[MType]) -> str:
    parts = [name]
    for t in arg_types:
        tag = t.dtype.short_name + ("c" if t.is_complex else "")
        shape = t.shape
        tag += f"_{shape.rows}x{shape.cols}"
        if t.value is not None and t.is_scalar:
            tag += f"_v{t.value}"
        parts.append(tag)
    return "$".join(parts)


class _IndexContext:
    """Tracks the array being indexed so ``end`` can be resolved."""

    def __init__(self, array_type: MType, nargs: int):
        self.array_type = array_type
        self.nargs = nargs
        self.position = 0


class Inferencer:
    """Specializes user functions over concrete argument types."""

    def __init__(self, program: ast.Program, source: SourceFile | None = None):
        self.program = program
        self.source = source
        self.registry = FunctionRegistry.from_program(program)
        self.specialized: dict[str, SpecializedFunction] = {}
        self._in_progress: set[str] = set()

    # ------------------------------------------------------------------
    # Errors
    # ------------------------------------------------------------------

    def _where(self, span: Span) -> str:
        if self.source is None:
            return ""
        line, col = self.source.line_col(span.start)
        return f"{self.source.filename}:{line}:{col}: "

    def error(self, message: str, span: Span) -> NoReturn:
        raise SemanticError(self._where(span) + message)

    def unsupported(self, message: str, span: Span) -> None:
        raise UnsupportedFeatureError(self._where(span) + message)

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------

    def specialize(self, name: str, arg_types: list[MType]) -> SpecializedFunction:
        """Analyze function ``name`` under ``arg_types`` (memoized).

        User-defined functions take precedence over the compiler's
        MATLAB-source library kernels (fft/ifft/conv/filter).
        """
        func = self.registry.lookup(name)
        if func is None:
            func = library.lookup(name)
            if func is not None:
                problem = library.check_precondition(name, arg_types)
                if problem is not None:
                    self.error(problem, func.span)
        if func is None:
            defined = ", ".join(sorted(self.registry.functions))
            hint = f" (defined functions: {defined})" if defined else ""
            raise SemanticError(f"unknown function {name!r}{hint}")
        key = _signature_key(name, arg_types)
        if key in self.specialized:
            return self.specialized[key]
        if key in self._in_progress:
            self.unsupported(
                f"recursive call to {name!r} is not supported", func.span)
        if len(arg_types) != len(func.params):
            self.error(
                f"function {name!r} expects {len(func.params)} argument(s), "
                f"got {len(arg_types)}", func.span)
        self._in_progress.add(key)
        try:
            spec = SpecializedFunction(func=func, mangled_name=key, arg_types=list(arg_types))
            env = Environment()
            for param, mtype in zip(func.params, arg_types):
                if param != "~":
                    env.define(param, mtype, func.span, is_param=True)
            analyzer = _FunctionAnalyzer(self, spec)
            env = analyzer.infer_body(func.body, env)
            spec.final_env = env
            for out in func.returns:
                symbol = env.lookup(out)
                if symbol is None:
                    self.error(
                        f"output variable {out!r} of function {name!r} "
                        "is never assigned", func.span)
                spec.result_types.append(symbol.mtype.without_value())
            self.specialized[key] = spec
        finally:
            self._in_progress.discard(key)
        return spec


class _FunctionAnalyzer:
    """Infers one function body; records node types into the spec."""

    def __init__(self, owner: Inferencer, spec: SpecializedFunction):
        self.owner = owner
        self.spec = spec
        self._index_stack: list[_IndexContext] = []

    # -- plumbing ---------------------------------------------------------

    def error(self, message: str, span: Span) -> NoReturn:
        self.owner.error(message, span)

    def unsupported(self, message: str, span: Span) -> None:
        self.owner.unsupported(message, span)

    def _record(self, node: ast.Expr, types: list[MType]) -> MType:
        self.spec.node_types[id(node)] = types
        return types[0]

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def infer_body(self, body: list[ast.Stmt], env: Environment) -> Environment:
        for stmt in body:
            env = self.infer_stmt(stmt, env)
        return env

    def infer_stmt(self, stmt: ast.Stmt, env: Environment) -> Environment:
        method = getattr(self, "_stmt_" + type(stmt).__name__, None)
        if method is None:
            self.unsupported(f"statement {type(stmt).__name__} is not supported",
                             stmt.span)
        return method(stmt, env)

    def _stmt_ExprStmt(self, stmt: ast.ExprStmt, env: Environment) -> Environment:
        self.infer_expr(stmt.expr, env)
        return env

    def _stmt_Assign(self, stmt: ast.Assign, env: Environment) -> Environment:
        value_t = self.infer_expr(stmt.value, env)
        target = stmt.target
        if isinstance(target, ast.Identifier):
            value_t = self._sticky_complex(target.name, value_t, env)
            self._shape_stable(target.name, value_t, env, target.span)
            env.define(target.name, value_t, target.span)
            self._record(target, [value_t])
            return env
        if isinstance(target, ast.CallIndex):
            return self._indexed_store(target, value_t, env)
        self.error("invalid assignment target", target.span)
        return env

    def _sticky_complex(self, name: str, value_t: MType,
                        env: Environment) -> MType:
        """Once complex, a variable stays complex across reassignment.

        The variable's storage is declared once with the *join* of all
        its per-point types, so a complex variable reassigned with a
        real value keeps complex storage (the value is stored with a
        zero imaginary part).  Recording the widened type here keeps
        the per-point record in sync with the storage the builder will
        declare; the reverse direction (real storage, complex value)
        widens the storage instead, and loads at real-typed program
        points extract the real component."""
        prior = env.lookup(name)
        if prior is None or not prior.mtype.is_complex \
                or value_t.is_complex:
            return value_t
        return MType(value_t.dtype, True, value_t.shape, value_t.value)

    def _shape_stable(self, name: str, value_t: MType, env: Environment,
                      span: Span) -> None:
        """Reject array reassignment that changes the array's shape.

        Storage is laid out once from the variable's final type; an
        intermediate value with different dimensions (``a = a'`` on a
        non-square matrix) would be linearized with the wrong leading
        dimension and silently permute elements.  Scalar reassignment
        and same-shape arrays are unaffected."""
        prior = env.lookup(name)
        if prior is None:
            return
        old_shape, new_shape = prior.mtype.shape, value_t.shape
        if old_shape.is_scalar or new_shape.is_scalar:
            return
        old_dims = (old_shape.rows, old_shape.cols)
        new_dims = (new_shape.rows, new_shape.cols)
        if None in old_dims or None in new_dims or old_dims == new_dims:
            return
        self.unsupported(
            f"reassignment changes the shape of {name!r} from "
            f"{old_shape.describe()} to {new_shape.describe()}; array "
            "shapes are fixed at the first assignment", span)

    def _indexed_store(self, target: ast.CallIndex, value_t: MType,
                       env: Environment) -> Environment:
        if not isinstance(target.target, ast.Identifier):
            self.error("indexed assignment target must be a variable",
                       target.span)
        name = target.target.name
        symbol = env.lookup(name)
        if symbol is None:
            self.error(
                f"indexed assignment to undefined variable {name!r}; "
                "preallocate it first (e.g. with zeros)", target.span)
        array_t = symbol.mtype
        if array_t.is_scalar:
            # y(1) = v on a 1x1 value is a plain assignment.  A constant
            # subscript other than 1 would grow the array — rejected.
            self.spec.call_kinds[id(target)] = "index"
            region = self._infer_subscripts(target, array_t, env)
            if not region.is_scalar or not value_t.is_scalar:
                self.unsupported(
                    f"indexed assignment would grow scalar variable "
                    f"{name!r}; preallocate the array first", target.span)
            for sub in target.args:
                sub_t = self.spec.node_types.get(id(sub))
                if sub_t and sub_t[0].value is not None and \
                        not isinstance(sub_t[0].value, (str, complex)) and \
                        float(sub_t[0].value) != 1.0:
                    self.unsupported(
                        f"indexed assignment would grow scalar variable "
                        f"{name!r}; preallocate the array first",
                        target.span)
            new_t = MType(array_t.dtype.join(value_t.dtype),
                          array_t.is_complex or value_t.is_complex,
                          SCALAR)
            if new_t.dtype is DType.LOGICAL:
                new_t = MType(DType.DOUBLE, new_t.is_complex, SCALAR)
            env.define(name, new_t, target.span)
            self._record(target.target, [new_t])
            self._record(target, [new_t])
            return env
        self.spec.call_kinds[id(target)] = "index"
        region = self._infer_subscripts(target, array_t, env)
        # MATLAB accepts any value orientation in an indexed store as
        # long as the element counts agree (y(:) = row is legal).
        region_n = region.numel()
        value_n = value_t.shape.numel()
        if not value_t.is_scalar and region_n is not None and \
                value_n is not None and region_n != value_n:
            self.error(
                f"shape mismatch in indexed assignment to {name!r}: "
                f"selected {region.describe()} ({region_n} elements), "
                f"value is {value_t.shape.describe()} ({value_n} "
                "elements)", target.span)
        # Element class may widen (e.g. storing a complex into a real array).
        new_dtype = array_t.dtype.join(value_t.dtype)
        if new_dtype is DType.LOGICAL:
            new_dtype = DType.DOUBLE
        new_t = MType(new_dtype, array_t.is_complex or value_t.is_complex,
                      array_t.shape)
        env.define(name, new_t, target.span)
        self._record(target.target, [new_t])
        self._record(target, [MType(new_t.dtype, new_t.is_complex, region)])
        return env

    def _stmt_MultiAssign(self, stmt: ast.MultiAssign, env: Environment) -> Environment:
        value = stmt.value
        if not isinstance(value, ast.CallIndex) or not isinstance(
                value.target, ast.Identifier):
            self.error("multiple assignment requires a function call on the "
                       "right-hand side", stmt.span)
        result_types = self._infer_call_multi(value, env, nargout=len(stmt.targets))
        if len(result_types) < len(stmt.targets):
            self.error(
                f"function returns {len(result_types)} value(s), "
                f"{len(stmt.targets)} requested", stmt.span)
        for target, mtype in zip(stmt.targets, result_types):
            if isinstance(target, ast.Identifier):
                if target.name != "~":
                    env.define(target.name, mtype, target.span)
                self._record(target, [mtype])
            elif isinstance(target, ast.CallIndex):
                env = self._indexed_store(target, mtype, env)
            else:
                self.error("invalid assignment target", target.span)
        return env

    def _stmt_If(self, stmt: ast.If, env: Environment) -> Environment:
        # Compile-time branch pruning: when conditions are constants (as
        # with shape tests over concretely-shaped inputs), only the live
        # branch is analyzed — dead branches with conflicting shapes must
        # not pollute the type join.  The builder replays the decision.
        selected: int | None = None
        dynamic = False
        for idx, (cond, _body) in enumerate(stmt.branches):
            cond_t = self.infer_expr(cond, env)
            if cond_t.value is None or not cond_t.is_scalar:
                dynamic = True
                break
            if bool(cond_t.value):
                selected = idx
                break
        if not dynamic:
            if selected is None:
                selected = -1  # all conditions statically false -> else
            self.spec.static_branches[id(stmt)] = selected
            body = stmt.else_body if selected == -1 else stmt.branches[selected][1]
            return self.infer_body(body, env)

        # Dynamic: analyze every branch and join.  Drop any stale verdict
        # from an earlier (pre-fixpoint) pass in which the condition was
        # still constant.
        self.spec.static_branches.pop(id(stmt), None)
        branch_envs: list[Environment] = []
        for cond, body in stmt.branches:
            self.infer_expr(cond, env)
            branch_env = self.infer_body(body, env.copy())
            branch_envs.append(branch_env)
        else_env = self.infer_body(stmt.else_body, env.copy())
        branch_envs.append(else_env)
        merged = branch_envs[0]
        for other in branch_envs[1:]:
            merged = _merge_union(merged, other)
        return merged

    def _stmt_For(self, stmt: ast.For, env: Environment) -> Environment:
        iterable_t = self.infer_expr(stmt.iterable, env)
        loop_var_t = self._loop_var_type(iterable_t)
        for _ in _rounds(stmt):
            body_env = env.copy()
            body_env.define(stmt.var, loop_var_t, stmt.span, is_loop_var=True)
            body_env = self.infer_body(stmt.body, body_env)
            merged = _merge_union(env, body_env)
            if merged.same_types(env):
                # This round inferred the body on the stable env, so the
                # node types it recorded are the fixpoint's.
                return merged
            env = merged
        self.error(f"types in loop over {stmt.var!r} did not stabilize",
                   stmt.span)

    def _loop_var_type(self, iterable_t: MType) -> MType:
        if iterable_t.shape.is_row or iterable_t.is_scalar:
            return MType(iterable_t.dtype, iterable_t.is_complex, SCALAR)
        # Iterating a matrix yields its columns; a column vector yields
        # itself once (MATLAB semantics).
        return MType(iterable_t.dtype, iterable_t.is_complex,
                     Shape(iterable_t.shape.rows, 1))

    def _stmt_While(self, stmt: ast.While, env: Environment) -> Environment:
        for _ in _rounds(stmt):
            self.infer_expr(stmt.condition, env)
            body_env = self.infer_body(stmt.body, env.copy())
            merged = _merge_union(env, body_env)
            if merged.same_types(env):
                return merged
            env = merged
        self.error("types in while loop did not stabilize", stmt.span)

    def _stmt_Switch(self, stmt: ast.Switch, env: Environment) -> Environment:
        self.infer_expr(stmt.subject, env)
        branch_envs = []
        for match, body in stmt.cases:
            self.infer_expr(match, env)
            branch_envs.append(self.infer_body(body, env.copy()))
        branch_envs.append(self.infer_body(stmt.otherwise, env.copy()))
        merged = branch_envs[0]
        for other in branch_envs[1:]:
            merged = _merge_union(merged, other)
        return merged

    def _stmt_Break(self, stmt: ast.Break, env: Environment) -> Environment:
        return env

    def _stmt_Continue(self, stmt: ast.Continue, env: Environment) -> Environment:
        return env

    def _stmt_Return(self, stmt: ast.Return, env: Environment) -> Environment:
        return env

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def infer_expr(self, expr: ast.Expr, env: Environment) -> MType:
        method = getattr(self, "_expr_" + type(expr).__name__, None)
        if method is None:
            self.unsupported(
                f"expression {type(expr).__name__} is not supported for "
                "code generation", expr.span)
        return method(expr, env)

    def _expr_NumberLit(self, expr: ast.NumberLit, env: Environment) -> MType:
        return self._record(expr, [MType.double(expr.value)])

    def _expr_ImagLit(self, expr: ast.ImagLit, env: Environment) -> MType:
        return self._record(
            expr, [MType.scalar(DType.DOUBLE, is_complex=True,
                                value=complex(0.0, expr.value))])

    def _expr_StringLit(self, expr: ast.StringLit, env: Environment) -> MType:
        mtype = MType(DType.CHAR, False, Shape(1, len(expr.value)), expr.value)
        return self._record(expr, [mtype])

    def _expr_Identifier(self, expr: ast.Identifier, env: Environment) -> MType:
        symbol = env.lookup(expr.name)
        if symbol is not None:
            return self._record(expr, [symbol.mtype])
        constant = builtins.CONSTANTS.get(expr.name)
        if constant is not None:
            return self._record(expr, [constant])
        if expr.name in self.owner.registry or builtins.is_builtin(expr.name) \
                or library.is_library_function(expr.name):
            # Zero-argument call written without parentheses.  Record
            # classification under the identifier node: the builder
            # rebuilds its own synthetic call node.
            call = ast.CallIndex(span=expr.span, target=expr, args=[])
            result = self._infer_call_multi(call, env, nargout=1,
                                            record_node=expr)
            if id(call) in self.spec.call_targets:
                self.spec.call_targets[id(expr)] = \
                    self.spec.call_targets[id(call)]
            return result[0]
        self.error(f"undefined variable or function {expr.name!r}", expr.span)

    def _expr_EndMarker(self, expr: ast.EndMarker, env: Environment) -> MType:
        if not self._index_stack:
            self.error("'end' outside of an index expression", expr.span)
        ctx = self._index_stack[-1]
        shape = ctx.array_type.shape
        if ctx.nargs == 1:
            n = shape.numel()
        else:
            n = shape.dim(ctx.position + 1)
        return self._record(expr, [MType.double(None if n is None else float(n))])

    def _expr_ColonAll(self, expr: ast.ColonAll, env: Environment) -> MType:
        # Only meaningful as a subscript; handled by _infer_subscripts.
        return self._record(expr, [MType.double()])

    def _expr_UnaryOp(self, expr: ast.UnaryOp, env: Environment) -> MType:
        operand = self.infer_expr(expr.operand, env)
        if expr.op == "~":
            result = MType(DType.LOGICAL, False, operand.shape,
                           _fold_unary("~", operand.value))
        else:
            dtype = operand.dtype if operand.dtype.is_float or \
                operand.dtype.is_integer else DType.DOUBLE
            result = MType(dtype, operand.is_complex, operand.shape,
                           _fold_unary(expr.op, operand.value))
        return self._record(expr, [result])

    _COMPARISONS = frozenset({"==", "~=", "<", "<=", ">", ">="})
    _LOGICAL = frozenset({"&", "|", "&&", "||"})
    _MATRIX_OPS = frozenset({"*", "/", "\\", "^"})

    def _expr_BinaryOp(self, expr: ast.BinaryOp, env: Environment) -> MType:
        left = self.infer_expr(expr.left, env)
        right = self.infer_expr(expr.right, env)
        op = expr.op
        if op in self._COMPARISONS:
            result = self._compare_type(op, left, right, expr.span)
        elif op in self._LOGICAL:
            result = self._logical_type(op, left, right, expr.span)
        elif op in self._MATRIX_OPS and not (left.is_scalar and right.is_scalar):
            result = self._matrix_op_type(op, left, right, expr.span)
        else:
            result = self._elementwise_type(op, left, right, expr.span)
        return self._record(expr, [result])

    def _compare_type(self, op: str, left: MType, right: MType,
                      span: Span) -> MType:
        shape = left.shape.elementwise(right.shape)
        if shape is None:
            self.error(
                f"comparison {op!r}: shapes {left.shape.describe()} and "
                f"{right.shape.describe()} do not conform", span)
        value = _fold_binop(op, left.value, right.value)
        return MType(DType.LOGICAL, False, shape, value)

    def _logical_type(self, op: str, left: MType, right: MType,
                      span: Span) -> MType:
        if op in ("&&", "||") and not (left.is_scalar and right.is_scalar):
            self.error(f"operands of {op!r} must be scalar", span)
        shape = left.shape.elementwise(right.shape)
        if shape is None:
            self.error(
                f"logical {op!r}: shapes {left.shape.describe()} and "
                f"{right.shape.describe()} do not conform", span)
        value = _fold_binop(op, left.value, right.value)
        return MType(DType.LOGICAL, False, shape, value)

    def _matrix_op_type(self, op: str, left: MType, right: MType,
                        span: Span) -> MType:
        dtype, is_complex = promote_binary(left, right)
        # A true matrix product accumulates, so it is computed in float;
        # scalar scaling (one side 1x1) keeps the integer class, like
        # MATLAB.
        if not dtype.is_float and not (left.is_scalar or right.is_scalar):
            dtype = DType.DOUBLE
        if op == "*":
            shape = left.shape.matmul(right.shape)
            if shape is None:
                self.error(
                    f"matrix product: inner dimensions of "
                    f"{left.shape.describe()} and {right.shape.describe()} "
                    "disagree", span)
            return MType(dtype, is_complex, shape)
        if op == "/" and right.is_scalar:
            return MType(dtype, is_complex, left.shape)
        if op == "\\" and left.is_scalar:
            return MType(dtype, is_complex, right.shape)
        if op == "^":
            self.unsupported(
                "matrix power is not supported; use .^ for element-wise "
                "power", span)
        self.unsupported(
            f"matrix {op!r} (linear solve) is not supported in this subset",
            span)

    def _elementwise_type(self, op: str, left: MType, right: MType,
                          span: Span) -> MType:
        shape = left.shape.elementwise(right.shape)
        if shape is None:
            self.error(
                f"element-wise {op!r}: shapes {left.shape.describe()} and "
                f"{right.shape.describe()} do not conform", span)
        dtype, is_complex = promote_binary(left, right)
        if op in ("/", "./", "\\", ".\\", "^", ".^") and not dtype.is_float:
            dtype = DType.DOUBLE
        value = _fold_binop(op, left.value, right.value)
        if isinstance(value, complex):
            is_complex = True
        return MType(dtype, is_complex, shape, value)

    def _expr_Transpose(self, expr: ast.Transpose, env: Environment) -> MType:
        operand = self.infer_expr(expr.operand, env)
        result = MType(operand.dtype, operand.is_complex,
                       operand.shape.transpose(),
                       operand.value if operand.is_scalar and not (
                           expr.conjugate and operand.is_complex) else None)
        return self._record(expr, [result])

    def _expr_Range(self, expr: ast.Range, env: Environment) -> MType:
        start = self.infer_expr(expr.start, env)
        stop = self.infer_expr(expr.stop, env)
        step = self.infer_expr(expr.step, env) if expr.step is not None else None
        for part, what in ((start, "start"), (stop, "stop"), (step, "step")):
            if part is not None and not part.is_scalar:
                self.error(f"range {what} must be scalar", expr.span)
        count = _range_count(
            start.value, stop.value,
            1.0 if step is None else step.value)
        dtype = start.dtype.join(stop.dtype)
        if step is not None:
            dtype = dtype.join(step.dtype)
        if not (dtype.is_float or dtype.is_integer):
            dtype = DType.DOUBLE
        result = MType(dtype, False, Shape(1, count))
        return self._record(expr, [result])

    def _expr_MatrixLit(self, expr: ast.MatrixLit, env: Environment) -> MType:
        if not expr.rows:
            return self._record(expr, [MType(DType.DOUBLE, False, Shape(0, 0))])
        row_types: list[MType] = []
        dtype = DType.LOGICAL
        is_complex = False
        for row in expr.rows:
            row_shape: Shape | None = None
            for element in row:
                elem_t = self.infer_expr(element, env)
                dtype = dtype.join(elem_t.dtype)
                is_complex = is_complex or elem_t.is_complex
                row_shape = elem_t.shape if row_shape is None else \
                    row_shape.hcat(elem_t.shape)
                if row_shape is None:
                    self.error("inconsistent row heights in matrix literal",
                               element.span)
            row_types.append(MType(dtype, is_complex, row_shape))
        shape = row_types[0].shape
        for row_t in row_types[1:]:
            merged = shape.vcat(row_t.shape)
            if merged is None:
                self.error("inconsistent column counts in matrix literal",
                           expr.span)
            shape = merged
        if not dtype.is_float and not dtype.is_integer:
            dtype = DType.DOUBLE
        result = MType(dtype, is_complex, shape)
        if shape.is_scalar and len(expr.rows) == 1 and len(expr.rows[0]) == 1:
            inner = self.spec.node_types[id(expr.rows[0][0])][0]
            result = MType(dtype, is_complex, shape, inner.value)
        return self._record(expr, [result])

    def _expr_CallIndex(self, expr: ast.CallIndex, env: Environment) -> MType:
        return self._infer_call_multi(expr, env, nargout=1)[0]

    def _expr_AnonFunc(self, expr: ast.AnonFunc, env: Environment) -> MType:
        self.unsupported(
            "anonymous functions are not supported for code generation",
            expr.span)

    def _expr_FuncHandle(self, expr: ast.FuncHandle, env: Environment) -> MType:
        self.unsupported(
            "function handles are not supported for code generation",
            expr.span)

    # ------------------------------------------------------------------
    # Calls and indexing
    # ------------------------------------------------------------------

    def _infer_call_multi(self, expr: ast.CallIndex, env: Environment,
                          nargout: int,
                          record_node: ast.Expr | None = None) -> list[MType]:
        record_node = record_node or expr
        if not isinstance(expr.target, ast.Identifier):
            self.unsupported(
                "indexing the result of an expression is not supported; "
                "assign it to a variable first", expr.span)
        name = expr.target.name

        symbol = env.lookup(name)
        if symbol is not None:
            # Array (or scalar) indexing.
            self.spec.call_kinds[id(expr)] = "index"
            self._record(expr.target, [symbol.mtype])
            region = self._infer_subscripts(expr, symbol.mtype, env)
            result = MType(symbol.mtype.dtype, symbol.mtype.is_complex, region)
            self._record(record_node, [result])
            if record_node is not expr:
                self._record(expr, [result])
            return [result]

        func = self.owner.registry.lookup(name) or library.lookup(name)
        if func is not None:
            arg_types = []
            for arg in expr.args:
                arg_t = self.infer_expr(arg, env)
                # Keep compile-time-constant scalars across the call
                # boundary: callees value-specialize on them, which is
                # how sizes like hann_window(length(y)) stay static.
                if not (arg_t.is_scalar and arg_t.value is not None):
                    arg_t = arg_t.without_value()
                arg_types.append(arg_t)
            spec = self.owner.specialize(name, arg_types)
            self.spec.call_kinds[id(expr)] = "call"
            self.spec.call_targets[id(expr)] = spec.mangled_name
            results = spec.result_types or [MType.double()]
            self._record(record_node, results)
            if record_node is not expr:
                self._record(expr, results)
            return results

        builtin = builtins.lookup(name)
        if builtin is not None:
            if not builtin.min_args <= len(expr.args) <= builtin.max_args:
                self.error(
                    f"{name}() takes {builtin.min_args}..{builtin.max_args} "
                    f"argument(s), got {len(expr.args)}", expr.span)
            arg_types = [self.infer_expr(arg, env) for arg in expr.args]
            results = builtin.infer(arg_types, expr, self)
            self.spec.call_kinds[id(expr)] = "builtin"
            self._record(record_node, results or [MType.double()])
            if record_node is not expr:
                self._record(expr, results or [MType.double()])
            return results or [MType.double()]

        self.error(f"undefined variable or function {name!r}", expr.span)

    def _infer_subscripts(self, expr: ast.CallIndex, array_t: MType,
                          env: Environment) -> Shape:
        """Shape selected by the subscripts of ``expr`` into ``array_t``."""
        nargs = len(expr.args)
        if nargs == 0:
            return array_t.shape
        if nargs > 2:
            self.error("at most two subscripts are supported", expr.span)
        ctx = _IndexContext(array_t, nargs)
        self._index_stack.append(ctx)
        try:
            counts: list[tuple[int | None, bool]] = []  # (count, is_colon)
            for position, arg in enumerate(expr.args):
                ctx.position = position
                if isinstance(arg, ast.ColonAll):
                    self._record(arg, [MType.double()])
                    counts.append((None, True))
                    continue
                sub_t = self.infer_expr(arg, env)
                if sub_t.dtype is DType.LOGICAL and not sub_t.is_scalar:
                    self.unsupported(
                        "logical indexing is not supported for code "
                        "generation", arg.span)
                if sub_t.is_scalar:
                    counts.append((1, False))
                elif sub_t.is_vector:
                    counts.append((sub_t.shape.numel(), False))
                else:
                    self.error("subscript must be a scalar or vector",
                               arg.span)
        finally:
            self._index_stack.pop()

        shape = array_t.shape
        if nargs == 1:
            count, is_colon = counts[0]
            if is_colon:  # x(:) -> column of all elements
                return Shape(shape.numel(), 1)
            if count == 1:
                return SCALAR
            # Linear indexing with a vector keeps the subscript's
            # orientation; we get that from the recorded node type.
            sub_t = self.spec.node_types[id(expr.args[0])][0]
            return sub_t.shape
        row_count = shape.rows if counts[0][1] else counts[0][0]
        col_count = shape.cols if counts[1][1] else counts[1][0]
        return Shape(row_count, col_count)


# ----------------------------------------------------------------------
# Constant folding helpers
# ----------------------------------------------------------------------


def _fold_unary(op: str, value):
    if value is None or isinstance(value, str):
        return None
    try:
        if op == "-":
            return -value
        if op == "+":
            return value
        if op == "~":
            return not bool(value)
    except TypeError:
        return None
    return None


def _fold_binop(op: str, a, b):
    if a is None or b is None or isinstance(a, str) or isinstance(b, str):
        return None
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op in ("*", ".*"):
            return a * b
        if op in ("/", "./"):
            return a / b if b != 0 else None
        if op in ("\\", ".\\"):
            return b / a if a != 0 else None
        if op in ("^", ".^"):
            result = a ** b
            return result if not isinstance(result, complex) or \
                isinstance(a, complex) or isinstance(b, complex) else result
        if op == "==":
            return a == b
        if op == "~=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op in ("&", "&&"):
            return bool(a) and bool(b)
        if op in ("|", "||"):
            return bool(a) or bool(b)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return None
    return None


def _range_count(start, stop, step) -> int | None:
    """Number of elements of start:step:stop when all are constants.

    Delegates to the shared fencepost rule in :mod:`repro.numeric` —
    the same one the golden interpreter evaluates at run time — so a
    compiled range can never differ in length from an interpreted one.
    """
    for v in (start, stop, step):
        if v is None or isinstance(v, (complex, str)):
            return None
    try:
        return numeric.range_count(float(start), float(step), float(stop))
    except OverflowError:
        return None


def _merge_union(a: Environment, b: Environment) -> Environment:
    """Union-join of two environments.

    Names present in both are type-joined; names present in only one
    survive unchanged (the C backend declares every local up front, so a
    variable assigned in a single branch is still declarable).
    """
    merged = a.copy()
    for name in b.names():
        sym_b = b.lookup(name)
        sym_a = a.lookup(name)
        if sym_a is None:
            merged.define(name, sym_b.mtype, sym_b.span,
                          is_param=sym_b.is_param, is_loop_var=sym_b.is_loop_var)
        elif sym_a.mtype != sym_b.mtype:
            merged.define(name, sym_a.mtype.join(sym_b.mtype), sym_a.span,
                          is_param=sym_a.is_param, is_loop_var=sym_a.is_loop_var)
    return merged


def specialize_program(program: ast.Program, entry: str,
                       arg_types: list[MType],
                       source: SourceFile | None = None) -> SpecializedProgram:
    """Analyze ``program`` starting from ``entry`` with ``arg_types``."""
    inferencer = Inferencer(program, source)
    entry_spec = inferencer.specialize(entry, arg_types)
    return SpecializedProgram(
        entry=entry_spec,
        functions=dict(inferencer.specialized),
        source=source,
    )
