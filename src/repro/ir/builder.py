"""AST-to-IR lowering.

Turns a type-inferred :class:`~repro.semantics.inference.SpecializedProgram`
into an :class:`~repro.ir.nodes.IRModule`: every matrix operation becomes
an explicit loop nest over statically-shaped column-major arrays, indices
become 0-based linear offsets, and MATLAB's 1-based ``for`` loops become
canonical counted loops.

Two lowering modes exist, selected by ``mode``:

* ``"fused"`` (the proposed compiler): element-wise expression trees are
  scalarized into a *single* loop whose body evaluates the whole tree,
  with loop-invariant scalar subexpressions hoisted in front.
* ``"naive"`` (the MATLAB-Coder-style baseline): every element-wise
  operation materializes its own temporary array with its own loop —
  the shape of code a retail MATLAB-to-C translator produces when it
  knows nothing about the target.

Both modes share all other lowering rules, so measured differences
between the two pipelines isolate the paper's contribution.
"""

from __future__ import annotations

from repro.errors import LoweringError, UnsupportedFeatureError
from repro.frontend import ast_nodes as ast
from repro.ir import nodes as ir
from repro.ir.types import (
    EXACT_INTEGERS,
    ArrayType,
    I32,
    IRType,
    ScalarKind,
    ScalarType,
    from_mtype,
    scalar_from_mtype,
)
from repro.semantics.builtins import lookup as lookup_builtin
from repro.semantics.inference import SpecializedFunction, SpecializedProgram
from repro.semantics.types import DType, MType

#: C keywords that must not collide with lowered variable names.
_C_RESERVED = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    main""".split()
)

_ELEMENTWISE_BINOPS = {
    "+": "add", "-": "sub", ".*": "mul", "./": "div", ".\\": "div",
    ".^": "pow", "==": "eq", "~=": "ne", "<": "lt", "<=": "le",
    ">": "gt", ">=": "ge", "&": "land", "|": "lor",
}

#: Every binary operator on two scalars.
_SCALAR_BINOPS = {**_ELEMENTWISE_BINOPS, "*": "mul", "/": "div",
                  "\\": "div", "^": "pow", "&&": "land", "||": "lor"}

#: Builtins scalarizable inside a fused element-wise loop.
_ELEMENTWISE_MATH = frozenset(
    "abs sqrt exp log sin cos tan atan floor ceil round fix sign conj "
    "real imag angle".split()
)

_CAST_BUILTINS = frozenset("double single int8 int16 int32 logical".split())


def lower_program(sprog: SpecializedProgram, mode: str = "fused") -> ir.IRModule:
    """Lower all specializations; entry function is lowered last."""
    if mode not in ("fused", "naive"):
        raise ValueError(f"unknown lowering mode {mode!r}")
    module = ir.IRModule()
    for spec in sprog.in_call_order():
        lowerer = _FunctionLowerer(sprog, spec, mode)
        module.functions.append(lowerer.lower())
    module.entry = _mangle(sprog.entry.mangled_name)
    return module


def _is_integer_const(value) -> bool:
    """Is ``value`` a compile-time constant with an exact integer value?"""
    if value is None or isinstance(value, (complex, str)):
        return False
    try:
        return float(value) == int(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


def _mangle(name: str) -> str:
    """A C-safe symbol for a specialization key."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sym = "".join(out)
    if sym in _C_RESERVED or sym[0].isdigit():
        sym = "m_" + sym
    return sym


def _zero_based(subscript: ir.Expr) -> ir.Expr:
    """A 1-based ``I32`` MATLAB subscript as a 0-based offset."""
    return ir.BinOp(I32, op="sub", left=subscript, right=ir.Const(I32, 1))


def _i32(value: ir.Expr | int | str) -> ir.Expr:
    """An ``I32`` operand: an expression as it is, a counter name as a
    fresh read of it, an integer as a constant."""
    if isinstance(value, ir.Expr):
        return value
    if isinstance(value, str):
        return ir.VarRef(I32, value)
    return ir.Const(I32, value)


class _FunctionLowerer:
    """Lowers one specialized function to an IRFunction."""

    def __init__(self, sprog: SpecializedProgram, spec: SpecializedFunction,
                 mode: str):
        self.sprog = sprog
        self.spec = spec
        self.mode = mode
        self.fn = ir.IRFunction(name=_mangle(spec.mangled_name),
                                source_name=spec.func.name)
        self._blocks: list[list[ir.Stmt]] = []
        self._temp_counter = 0
        self._name_map: dict[str, str] = {}
        self._narrowed: set[str] = set()
        self._cur_line = 0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def emit(self, stmt: ir.Stmt) -> None:
        if self._cur_line:
            # Tag the statement (and any nested statements built
            # wholesale, e.g. loop nests) with the MATLAB source line
            # currently being lowered; inner statements emitted earlier
            # already carry their own lines and are left alone.
            for sub in ir.walk_statements([stmt]):
                if sub.line == 0:
                    sub.line = self._cur_line
        self._blocks[-1].append(stmt)

    def push_block(self) -> None:
        self._blocks.append([])

    def pop_block(self) -> list[ir.Stmt]:
        return self._blocks.pop()

    def temp(self, prefix: str, ir_type: IRType) -> str:
        """A fresh compiler temporary, declared with ``ir_type``.

        Temp numbers and declaration order reach the emitted C, so
        callers allocate in the order the locals should appear."""
        # The leading underscore keeps generated names out of the source
        # namespace: MATLAB identifiers must start with a letter, so no
        # user variable can ever collide with a compiler temporary.  (A
        # reduction counter named `k4` once shadowed a source loop
        # variable of the same name — found by the differential fuzzer.)
        self._temp_counter += 1
        name = f"_{prefix}{self._temp_counter}"
        self.fn.declare(name, ir_type)
        return name

    def _int_var(self, prefix: str) -> str:
        """A fresh ``I32`` temporary: a loop counter or an index."""
        return self.temp(prefix, I32)

    @staticmethod
    def _for(var: str, stop: ir.Expr | int, body: list[ir.Stmt],
             start: ir.Expr | int = 0) -> ir.ForRange:
        """The unit-step counted loop ``for var in [start, stop)``."""
        return ir.ForRange(var=var, start=_i32(start), stop=_i32(stop),
                           step=1, body=body)

    @staticmethod
    def _col_major(row: ir.Expr | int | str, col: ir.Expr | int | str,
                   rows: int) -> ir.Expr:
        """The 0-based linear offset of (``row``, ``col``) in a
        column-major array of ``rows`` rows; a constant when both
        subscripts are."""
        if isinstance(row, int) and isinstance(col, int):
            return ir.Const(I32, row + col * rows)
        return ir.BinOp(I32, op="add", left=_i32(row),
                        right=ir.BinOp(I32, op="mul", left=_i32(col),
                                       right=ir.Const(I32, rows)))

    def _where(self, node: ast.Node) -> str:
        if self.sprog.source is None:
            return ""
        line, col = self.sprog.source.line_col(node.span.start)
        return f"{self.sprog.source.filename}:{line}:{col}: "

    def fail(self, message: str, node: ast.Node) -> None:
        raise LoweringError(self._where(node) + message)

    def unsupported(self, message: str, node: ast.Node) -> None:
        raise UnsupportedFeatureError(self._where(node) + message)

    def mtype_of(self, node: ast.Expr) -> MType:
        types = self.spec.node_types.get(id(node))
        if types is None:
            raise LoweringError(
                f"internal: no inferred type for {type(node).__name__} node")
        return types[0]

    def ir_name(self, matlab_name: str) -> str:
        name = self._name_map.get(matlab_name)
        if name is None:
            name = matlab_name if matlab_name not in _C_RESERVED else \
                matlab_name + "_"
            self._name_map[matlab_name] = name
        return name

    def var_ir_type(self, matlab_name: str) -> IRType:
        if matlab_name in self._narrowed:
            return I32
        symbol = self.spec.final_env.lookup(matlab_name)
        if symbol is None:
            raise LoweringError(f"internal: variable {matlab_name!r} missing "
                                "from final environment")
        return from_mtype(symbol.mtype, f"variable {matlab_name!r}")

    # ------------------------------------------------------------------
    # Function skeleton
    # ------------------------------------------------------------------

    def lower(self) -> ir.IRFunction:
        func = self.spec.func
        mutated = self._mutated_names(func.body)
        outputs = [name for name in func.returns if name != "~"]
        self._narrowed = self._int_loop_vars(func, mutated, outputs)

        # Inputs.
        copy_ins: list[tuple[str, str]] = []
        for param, mtype in zip(func.params, self.spec.arg_types):
            if param == "~":
                continue
            ir_type = from_mtype(mtype, f"parameter {param!r}")
            if isinstance(ir_type, ArrayType) and (
                    param in mutated or param in outputs):
                in_name = self.ir_name(param) + "__in"
                self.fn.params.append(ir.Param(in_name, ir_type))
                copy_ins.append((self.ir_name(param), in_name))
            else:
                self.fn.params.append(ir.Param(self.ir_name(param), ir_type))

        # Outputs.
        scalar_output_names: set[str] = set()
        for out, mtype in zip([n for n in func.returns if n != "~"],
                              self.spec.result_types):
            ir_type = from_mtype(mtype, f"output {out!r}")
            self.fn.outputs.append(
                ir.Param(self.ir_name(out), ir_type, is_output=True))
            if isinstance(ir_type, ScalarType):
                scalar_output_names.add(out)

        # Locals: everything in the final environment that is not an
        # input parameter or an array output.
        array_output_names = {p.name for p in self.fn.outputs
                              if isinstance(p.type, ArrayType)}
        param_names = {p.name for p in self.fn.params}
        for name in self.spec.final_env.names():
            symbol = self.spec.final_env.lookup(name)
            ir_name = self.ir_name(name)
            if ir_name in param_names or ir_name in array_output_names:
                continue
            if symbol.mtype.dtype is DType.CHAR:
                continue  # string literals never become real variables
            self.fn.declare(ir_name, self.var_ir_type(name))

        self.push_block()
        for local_name, in_name in copy_ins:
            self.emit(ir.CopyArray(dst=local_name, src=in_name))
        self.lower_body(func.body)
        self.fn.body = self.pop_block()
        return self.fn

    def _int_loop_vars(self, func: ast.Function, mutated: set[str],
                       outputs: list[str]) -> set[str]:
        """Loop variables that can be narrowed to i32.

        A variable qualifies when its only definitions are integer-
        stepped ``for`` ranges with constant integer start/step, it is
        never assigned otherwise, and it is neither a parameter nor an
        output.  Narrowed loop variables index arrays without any
        float-to-int conversion in the hot loops.
        """
        candidates: dict[str, bool] = {}
        assigned: set[str] = set()
        for stmt in func.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and isinstance(
                        node.target, ast.Identifier):
                    assigned.add(node.target.name)
                elif isinstance(node, ast.MultiAssign):
                    for target in node.targets:
                        if isinstance(target, ast.Identifier):
                            assigned.add(target.name)
                elif isinstance(node, ast.For):
                    ok = False
                    rng = node.iterable
                    if isinstance(rng, ast.Range):
                        types = self.spec.node_types
                        start_t = types.get(id(rng.start), [None])[0]
                        step_ok = rng.step is None
                        if rng.step is not None:
                            step_t = types.get(id(rng.step), [None])[0]
                            step_ok = (step_t is not None and
                                       _is_integer_const(step_t.value))
                        ok = (start_t is not None and step_ok and
                              _is_integer_const(start_t.value))
                    previous = candidates.get(node.var, True)
                    candidates[node.var] = previous and ok
        excluded = assigned | set(func.params) | set(outputs)
        return {name for name, ok in candidates.items()
                if ok and name not in excluded}

    def _mutated_names(self, body: list[ast.Stmt]) -> set[str]:
        """MATLAB names assigned anywhere in the body."""
        mutated: set[str] = set()

        def visit_target(target: ast.Expr) -> None:
            if isinstance(target, ast.Identifier):
                mutated.add(target.name)
            elif isinstance(target, ast.CallIndex) and isinstance(
                    target.target, ast.Identifier):
                mutated.add(target.target.name)

        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign):
                    visit_target(node.target)
                elif isinstance(node, ast.MultiAssign):
                    for target in node.targets:
                        visit_target(target)
                elif isinstance(node, ast.For):
                    mutated.add(node.var)
        return mutated

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def lower_body(self, body: list[ast.Stmt]) -> None:
        for stmt in body:
            self.lower_stmt(stmt)

    def _lower_block(self, body: list[ast.Stmt]) -> list[ir.Stmt]:
        """``body`` lowered into a block of its own."""
        self.push_block()
        self.lower_body(body)
        return self.pop_block()

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        prev_line = self._cur_line
        if self.sprog.source is not None:
            self._cur_line = \
                self.sprog.source.line_col(stmt.span.start)[0]
        method = getattr(self, "_stmt_" + type(stmt).__name__, None)
        if method is None:
            self.unsupported(
                f"cannot lower statement {type(stmt).__name__}", stmt)
        # Restore on exit so a compound handler (If/For/While) that
        # lowers a nested body sees its own line again when it emits
        # its outer statement, not the body's last line.
        try:
            method(stmt)
        finally:
            self._cur_line = prev_line

    def _stmt_ExprStmt(self, stmt: ast.ExprStmt) -> None:
        expr = stmt.expr
        if isinstance(expr, ast.CallIndex):
            kind = self.spec.call_kinds.get(id(expr))
            if kind == "call":
                self._emit_user_call(expr, result_names=None)
                return
            if kind == "builtin":
                name = expr.target.name
                builtin = lookup_builtin(name)
                if builtin is not None and builtin.kind == "io":
                    self._emit_io(name, expr)
                    return
        # Pure expression statement: evaluate for effect-free display;
        # nothing observable is generated.

    def _stmt_Assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Identifier):
            self._assign_variable(target.name, stmt.value, stmt)
        elif isinstance(target, ast.CallIndex):
            self._assign_indexed(target, stmt.value)
        else:
            self.fail("invalid assignment target", stmt)

    def _assign_variable(self, name: str, value: ast.Expr,
                         stmt: ast.Stmt) -> None:
        var_type = self.var_ir_type(name)
        ir_name = self.ir_name(name)
        if isinstance(var_type, ArrayType):
            if self._aliases_unsafely(value, name):
                # The RHS reads the destination through a construct
                # that stores element-by-element in a different order
                # than it reads (matrix literal, transpose, region
                # read, matmul, call...).  MATLAB semantics evaluate
                # the whole RHS first; writing in place would let later
                # elements observe already-overwritten ones, so build
                # into a fresh temporary and copy.
                temp = self.temp("alias", var_type)
                self._lower_array_into(value, temp, var_type)
                self.emit(ir.CopyArray(dst=ir_name, src=temp))
                return
            self._lower_array_into(value, ir_name, var_type)
        else:
            value_ir = self.lower_scalar(value)
            self.emit(ir.AssignVar(name=ir_name,
                                   value=self.coerce(value_ir, var_type)))

    def _aliases_unsafely(self, value: ast.Expr, name: str) -> bool:
        """True when assigning ``value`` directly into array ``name``
        could read elements the assignment has already overwritten.

        In-place lowering stays safe for the hot paths: a plain
        identifier copy, and element-wise trees (both fused and naive
        modes materialize array subtrees and hoist scalar reads before
        any store, and remaining reads of the destination are at the
        store index itself)."""
        if isinstance(value, ast.Identifier):
            return False
        if isinstance(value, ast.UnaryOp):
            return False
        if isinstance(value, ast.BinaryOp) and not self._is_matmul(value):
            return False
        return self._reads_variable(value, name)

    def _is_matmul(self, expr: ast.Expr) -> bool:
        """Is ``expr`` a matrix product of two non-scalars?"""
        return isinstance(expr, ast.BinaryOp) and expr.op == "*" \
            and not self.mtype_of(expr.left).is_scalar \
            and not self.mtype_of(expr.right).is_scalar

    def _reads_variable(self, node: object, name: str) -> bool:
        if isinstance(node, ast.Identifier):
            return node.name == name
        if isinstance(node, (list, tuple)):
            return any(self._reads_variable(item, name) for item in node)
        if hasattr(node, "__dataclass_fields__"):
            return any(
                self._reads_variable(getattr(node, field), name)
                for field in node.__dataclass_fields__ if field != "span")
        return False

    def _assign_indexed(self, target: ast.CallIndex, value: ast.Expr) -> None:
        array_name = target.target.name
        array_type = self.var_ir_type(array_name)
        if not isinstance(array_type, ArrayType):
            # y(1) = v on a 1x1 value: plain scalar assignment (inference
            # guaranteed the subscript selects the single element).
            value_ir = self.lower_scalar(value)
            self.emit(ir.AssignVar(name=self.ir_name(array_name),
                                   value=self.coerce(value_ir, array_type)))
            return
        ir_array = self.ir_name(array_name)
        region = self.mtype_of(target).shape
        if region.is_scalar and all(
                not isinstance(a, (ast.ColonAll, ast.Range)) and
                self.mtype_of(a).is_scalar
                for a in target.args):
            index = self._linear_index(target, array_type)
            value_ir = self.coerce(self.lower_scalar(value),
                                   ScalarType(array_type.elem.kind))
            self.emit(ir.Store(array=ir_array, index=index, value=value_ir))
            return
        self._store_region(target, ir_array, array_type, value)

    def _stmt_MultiAssign(self, stmt: ast.MultiAssign) -> None:
        value = stmt.value
        kind = self.spec.call_kinds.get(id(value))
        if kind == "call":
            names = self._target_result_names(stmt.targets)
            self._emit_user_call(value, result_names=names)
            return
        if kind == "builtin":
            name = value.target.name
            if name == "size":
                self._multi_size(stmt, value)
                return
            if name in ("min", "max"):
                self._multi_minmax(stmt, value, name)
                return
        self.unsupported(
            "multiple assignment is only supported from user functions, "
            "size(), min() and max()", stmt)

    def _target_result_names(self, targets: list[ast.Expr]) -> list[str]:
        names: list[str] = []
        for target in targets:
            if isinstance(target, ast.Identifier):
                if target.name == "~":
                    names.append(self.temp(
                        "ignored", from_mtype(self.mtype_of(target))))
                else:
                    names.append(self.ir_name(target.name))
            else:
                self.unsupported(
                    "indexed targets in multiple assignment are not "
                    "supported", target)
        return names

    def _multi_size(self, stmt: ast.MultiAssign, call: ast.CallIndex) -> None:
        arg_t = self.mtype_of(call.args[0])
        dims = [arg_t.shape.rows, arg_t.shape.cols]
        for target, dim in zip(stmt.targets, dims):
            if not isinstance(target, ast.Identifier) or target.name == "~":
                continue
            if dim is None:
                self.fail("size() of a statically unknown dimension", stmt)
            var_type = self.var_ir_type(target.name)
            self.emit(ir.AssignVar(
                name=self.ir_name(target.name),
                value=self.coerce(ir.Const(ScalarType(ScalarKind.F64),
                                           float(dim)), var_type)))

    def _multi_minmax(self, stmt: ast.MultiAssign, call: ast.CallIndex,
                      which: str) -> None:
        if len(call.args) != 1:
            self.unsupported(
                f"[v, i] = {which}() requires the single-argument form",
                stmt)
        arg = call.args[0]
        arg_t = self.mtype_of(arg)
        if not arg_t.is_vector or arg_t.is_scalar:
            self.unsupported(
                f"[v, i] = {which}() supports vectors only", stmt)
        src = self._materialize(arg)
        src_type = self._array_type_of(arg)
        elem = ScalarType(src_type.elem.kind)
        n = src_type.numel

        value_name = self._target_result_names([stmt.targets[0]])[0]
        index_name = (self._target_result_names([stmt.targets[1]])[0]
                      if len(stmt.targets) > 1 else None)
        best = self.temp("best", elem)
        best_i = self._int_var("besti")
        self.emit(ir.AssignVar(best, ir.Load(elem, array=src,
                                             index=ir.Const(I32, 0))))
        self.emit(ir.AssignVar(best_i, ir.Const(I32, 0)))
        k = self._int_var("k")
        current = ir.Load(elem, array=src, index=ir.VarRef(I32, k))
        op = "lt" if which == "min" else "gt"
        cond = ir.BinOp(ScalarType(ScalarKind.BOOL), op=op, left=current,
                        right=ir.VarRef(elem, best))
        then = [ir.AssignVar(best, current),
                ir.AssignVar(best_i, ir.VarRef(I32, k))]
        self.emit(self._for(k, n, [ir.If(condition=cond, then_body=then,
                                         else_body=[])], start=1))
        value_type = self.var_ir_type(stmt.targets[0].name) \
            if isinstance(stmt.targets[0], ast.Identifier) and \
            stmt.targets[0].name != "~" else elem
        self.emit(ir.AssignVar(value_name,
                               self.coerce(ir.VarRef(elem, best), value_type)))
        if index_name is not None:
            one_based = ir.BinOp(I32, op="add", left=ir.VarRef(I32, best_i),
                                 right=ir.Const(I32, 1))
            target1 = stmt.targets[1]
            index_type = self.var_ir_type(target1.name) \
                if isinstance(target1, ast.Identifier) and \
                target1.name != "~" else I32
            self.emit(ir.AssignVar(index_name,
                                   self.coerce(one_based, index_type)))

    def _stmt_If(self, stmt: ast.If) -> None:
        static = self.spec.static_branches.get(id(stmt))
        if static is not None:
            body = stmt.else_body if static == -1 else stmt.branches[static][1]
            self.lower_body(body)
            return
        self._lower_dynamic_if(stmt, 0)

    def _lower_dynamic_if(self, stmt: ast.If, index: int) -> None:
        cond_expr, body = stmt.branches[index]
        cond_t = self.mtype_of(cond_expr)
        if not cond_t.is_scalar:
            self.unsupported(
                "array-valued if conditions are not supported; reduce with "
                "a scalar test first", cond_expr)
        cond = self.as_bool(self.lower_scalar(cond_expr))
        then_block = self._lower_block(body)
        self.push_block()
        if index + 1 < len(stmt.branches):
            self._lower_dynamic_if(stmt, index + 1)
        else:
            self.lower_body(stmt.else_body)
        self.emit(ir.If(condition=cond, then_body=then_block,
                        else_body=self.pop_block()))

    def _stmt_While(self, stmt: ast.While) -> None:
        cond_t = self.mtype_of(stmt.condition)
        if not cond_t.is_scalar:
            self.unsupported("array-valued while conditions are not "
                             "supported", stmt.condition)
        # The condition expression tree is re-evaluated at every loop
        # head, so it must lower without emitting support statements
        # (array reductions etc. would land outside the loop).
        before = len(self._blocks[-1])
        cond = self.as_bool(self.lower_scalar(stmt.condition))
        if len(self._blocks[-1]) != before:
            self.unsupported(
                "while conditions may not contain array operations; "
                "compute the condition into a scalar variable instead",
                stmt.condition)
        self.emit(ir.While(condition=cond,
                           body=self._lower_block(stmt.body)))

    def _stmt_For(self, stmt: ast.For) -> None:
        iterable = stmt.iterable
        var_name = self.ir_name(stmt.var)
        var_type = self.var_ir_type(stmt.var)
        if isinstance(iterable, ast.Range):
            self._lower_range_for(stmt, iterable, var_name, var_type)
            return
        iter_t = self.mtype_of(iterable)
        if iter_t.is_scalar:
            # for v = scalar runs once.
            value = self.lower_scalar(iterable)
            self.emit(ir.AssignVar(var_name, self.coerce(value, var_type)))
            self.lower_body(stmt.body)
            return
        if not iter_t.is_vector:
            self.unsupported(
                "iterating over matrix columns is not supported; loop over "
                "an index range instead", iterable)
        src = self._materialize(iterable)
        src_type = self._array_type_of(iterable)
        counter = self._int_var("it")
        self.push_block()
        elem = ScalarType(src_type.elem.kind)
        load = ir.Load(elem, array=src, index=ir.VarRef(I32, counter))
        self.emit(ir.AssignVar(var_name, self.coerce(load, var_type)))
        self.lower_body(stmt.body)
        self.emit(self._for(counter, src_type.numel, self.pop_block()))

    def _lower_range_for(self, stmt: ast.For, rng: ast.Range, var_name: str,
                         var_type: IRType) -> None:
        start_t = self.mtype_of(rng.start)
        step_t = self.mtype_of(rng.step) if rng.step is not None else None
        step_const = 1.0 if step_t is None else step_t.value

        def is_int_const(value) -> bool:
            return value is not None and not isinstance(value, complex) and \
                float(value) == int(float(value))

        if is_int_const(step_const) and int(float(step_const)) != 0 and (
                is_int_const(start_t.value) or start_t.dtype.is_integer):
            # Integer counted loop directly over the MATLAB values.
            step = int(float(step_const))
            start = self.as_i32(self.lower_scalar(rng.start))
            stop_raw = self.as_i32(self.lower_scalar(rng.stop))
            bump = 1 if step > 0 else -1
            if isinstance(stop_raw, ir.Const):
                stop: ir.Expr = ir.Const(I32, int(stop_raw.value) + bump)
            else:
                # MATLAB evaluates the range bound once; hoist it so the
                # loop body cannot perturb the trip count.
                stop = self._hoist_scalar_value(
                    ir.BinOp(I32, op="add", left=stop_raw,
                             right=ir.Const(I32, bump)), "hi")
            loop_var = var_name if isinstance(var_type, ScalarType) and \
                var_type.kind is ScalarKind.I32 else self._int_var("i")
            self.push_block()
            if loop_var != var_name:
                self.emit(ir.AssignVar(
                    var_name,
                    self.coerce(ir.VarRef(I32, loop_var), var_type)))
            self.lower_body(stmt.body)
            self.emit(ir.ForRange(var=loop_var, start=start, stop=stop,
                                  step=step, body=self.pop_block()))
            return

        # General (possibly fractional) range: iterate a 0-based counter.
        count = self.mtype_of(rng).shape.numel()
        counter = self._int_var("it")
        start_v = self._hoist_scalar_value(self.lower_scalar(rng.start), "rs")
        step_expr = self.lower_scalar(rng.step) if rng.step is not None \
            else ir.Const(ScalarType(ScalarKind.F64), 1.0)
        step_v = self._hoist_scalar_value(step_expr, "rp")
        if count is None:
            # Runtime trip count: floor((stop - start)/step) + 1, hoisted
            # so the body cannot change the bound.
            stop_v = self._hoist_scalar_value(self.lower_scalar(rng.stop), "re")
            f64 = ScalarType(ScalarKind.F64)
            # The hoisted start and step are leaves; the position below
            # reads them again through nodes of its own.
            span = ir.BinOp(f64, op="sub", left=stop_v,
                            right=ir.clone(start_v))
            ratio = ir.BinOp(f64, op="div", left=span,
                             right=ir.clone(step_v))
            trips = ir.BinOp(I32, op="add",
                             left=self.as_i32(ir.MathCall(
                                 f64, name="floor", args=[ratio])),
                             right=ir.Const(I32, 1))
            count = self._hoist_scalar_value(trips, "hi")
        self.push_block()
        f64 = ScalarType(ScalarKind.F64)
        position = ir.BinOp(
            f64, op="add", left=start_v,
            right=ir.BinOp(f64, op="mul",
                           left=ir.Cast(f64, operand=ir.VarRef(I32, counter)),
                           right=step_v))
        self.emit(ir.AssignVar(var_name, self.coerce(position, var_type)))
        self.lower_body(stmt.body)
        self.emit(self._for(counter, count, self.pop_block()))

    def _stmt_Switch(self, stmt: ast.Switch) -> None:
        subject_t = self.mtype_of(stmt.subject)
        if not subject_t.is_scalar:
            self.unsupported("switch on non-scalar values is not supported",
                             stmt.subject)
        subject = self._hoist_scalar_value(self.lower_scalar(stmt.subject),
                                           "sw")

        def build(index: int) -> list[ir.Stmt]:
            if index >= len(stmt.cases):
                return self._lower_block(stmt.otherwise)
            match, body = stmt.cases[index]
            match_t = self.mtype_of(match)
            if not match_t.is_scalar:
                self.unsupported("switch cases must be scalar", match)
            cond = ir.BinOp(ScalarType(ScalarKind.BOOL), op="eq",
                            left=subject, right=self.lower_scalar(match))
            return [ir.If(condition=cond, then_body=self._lower_block(body),
                          else_body=build(index + 1))]

        for out in build(0):
            self.emit(out)

    def _stmt_Break(self, stmt: ast.Break) -> None:
        self.emit(ir.Break())

    def _stmt_Continue(self, stmt: ast.Continue) -> None:
        self.emit(ir.Continue())

    def _stmt_Return(self, stmt: ast.Return) -> None:
        self.emit(ir.Return())

    # ------------------------------------------------------------------
    # I/O builtins
    # ------------------------------------------------------------------

    def _emit_io(self, name: str, call: ast.CallIndex) -> None:
        if name == "disp":
            arg = call.args[0]
            arg_t = self.mtype_of(arg)
            if arg_t.dtype is DType.CHAR:
                if not isinstance(arg, ast.StringLit):
                    self.unsupported("disp() of computed strings is not "
                                     "supported", arg)
                self.emit(ir.Emit(format=arg.value + "\n", args=[]))
            elif arg_t.is_scalar:
                value = self.lower_scalar(arg)
                if arg_t.is_complex:
                    f64 = ScalarType(ScalarKind.F64)
                    self.emit(ir.Emit(format="%g%+gi\n", args=[
                        ir.MathCall(f64, name="real", args=[value]),
                        ir.MathCall(f64, name="imag", args=[value])]))
                else:
                    self.emit(ir.Emit(format="%g\n", args=[value]))
            else:
                src = self._materialize(arg)
                src_type = self._array_type_of(arg)
                elem = ScalarType(src_type.elem.kind)
                k = self._int_var("k")
                self.emit(self._for(k, src_type.numel, [ir.Emit(
                    format="%g ", args=[ir.Load(
                        elem, array=src, index=ir.VarRef(I32, k))])]))
                self.emit(ir.Emit(format="\n", args=[]))
            return
        if name in ("fprintf", "error"):
            fmt_expr = call.args[0]
            if not isinstance(fmt_expr, ast.StringLit):
                self.unsupported(f"{name}() requires a literal format string",
                                 call)
            fmt = (fmt_expr.value.replace("\\n", "\n").replace("\\t", "\t")
                   .replace("%d", "%.0f").replace("%i", "%.0f"))
            args = []
            for arg in call.args[1:]:
                arg_t = self.mtype_of(arg)
                if not arg_t.is_scalar:
                    self.unsupported(f"{name}() arguments must be scalar",
                                     arg)
                value = self.lower_scalar(arg)
                f64 = ScalarType(ScalarKind.F64)
                if arg_t.is_complex:
                    value = ir.MathCall(f64, name="real", args=[value])
                elif not (isinstance(value.type, ScalarType)
                          and value.type.kind is ScalarKind.F64):
                    value = ir.Cast(f64, operand=value)
                args.append(value)
            if name == "error":
                fmt = "error: " + fmt + "\n"
            self.emit(ir.Emit(format=fmt, args=args))
            if name == "error":
                self.emit(ir.Return())
            return
        self.unsupported(f"builtin {name}() is not supported here", call)

    # ------------------------------------------------------------------
    # Scalar expression lowering
    # ------------------------------------------------------------------

    def lower_scalar(self, expr: ast.Expr) -> ir.Expr:
        """Lower a scalar-typed expression; may emit support statements."""
        method = getattr(self, "_scalar_" + type(expr).__name__, None)
        if method is None:
            self.unsupported(
                f"cannot lower expression {type(expr).__name__}", expr)
        return method(expr)

    def _scalar_NumberLit(self, expr: ast.NumberLit) -> ir.Expr:
        return ir.Const(ScalarType(ScalarKind.F64), float(expr.value))

    def _scalar_ImagLit(self, expr: ast.ImagLit) -> ir.Expr:
        return ir.Const(ScalarType(ScalarKind.C128), complex(0.0, expr.value))

    def _scalar_StringLit(self, expr: ast.StringLit) -> ir.Expr:
        self.unsupported("string values cannot be used as numbers", expr)

    def _scalar_Range(self, expr: ast.Range) -> ir.Expr:
        # A range can appear in scalar position only when it has exactly
        # one element (x(1:1)); its value is then the start.
        return self.lower_scalar(expr.start)

    def _scalar_EndMarker(self, expr: ast.EndMarker) -> ir.Expr:
        mtype = self.mtype_of(expr)
        if mtype.value is None:
            self.fail("'end' could not be resolved to a constant extent",
                      expr)
        return ir.Const(I32, int(float(mtype.value)))

    def _scalar_Identifier(self, expr: ast.Identifier) -> ir.Expr:
        symbol = self.spec.final_env.lookup(expr.name)
        if symbol is not None:
            ir_type = self.var_ir_type(expr.name)
            if isinstance(ir_type, ArrayType):
                self.fail(f"array {expr.name!r} used where a scalar is "
                          "required", expr)
            return self._match_point_type(
                ir.VarRef(ir_type, name=self.ir_name(expr.name)), expr)
        mtype = self.mtype_of(expr)
        if mtype.value is not None:
            return self._const_of(mtype)
        # Zero-argument function call written without parentheses; the
        # inferencer recorded the classification under the identifier.
        call = ast.CallIndex(span=expr.span, target=expr, args=[])
        target_key = self.spec.call_targets.get(id(expr))
        if target_key is not None:
            names = self._emit_user_call(call, result_names=None,
                                         target_key=target_key)
            result_type = self.fn.local_type(names[0])
            return ir.VarRef(result_type, name=names[0])
        return self._scalar_call(call, known_kind=None, record=expr)

    def _const_of(self, mtype: MType) -> ir.Expr:
        ir_type = scalar_from_mtype(mtype)
        value = mtype.value
        if isinstance(value, bool):
            value = bool(value)
        return ir.Const(ir_type, value)

    def _scalar_UnaryOp(self, expr: ast.UnaryOp) -> ir.Expr:
        operand = self.lower_scalar(expr.operand)
        return self._unop(expr.op, scalar_from_mtype(self.mtype_of(expr)),
                          operand)

    def _scalar_BinaryOp(self, expr: ast.BinaryOp) -> ir.Expr:
        result_t = scalar_from_mtype(self.mtype_of(expr))
        left = self.lower_scalar(expr.left)
        right = self.lower_scalar(expr.right)
        op = expr.op
        ir_op = _SCALAR_BINOPS.get(op)
        if ir_op is None:
            self.unsupported(f"operator {op!r} is not supported on scalars",
                             expr)
        if op in ("\\", ".\\"):
            left, right = right, left
        return self._binop(ir_op, result_t, left, right)

    def _unop(self, op: str, result_t: ScalarType,
              operand: ir.Expr) -> ir.Expr:
        if op == "+":
            return operand
        if op == "-":
            return ir.UnOp(result_t, op="neg",
                           operand=self.coerce(operand, result_t))
        return ir.UnOp(result_t, op="lnot", operand=self.as_bool(operand))

    def _binop(self, op: str, result_t: ScalarType, left: ir.Expr,
               right: ir.Expr) -> ir.Expr:
        """``left op right`` with the operands coerced as ``op`` needs:
        to a common type for comparisons, to bool for logicals, and to
        ``result_t`` otherwise."""
        if op in ("eq", "ne", "lt", "le", "gt", "ge"):
            operand_t = self._comparison_operand_type(left, right)
            return ir.BinOp(result_t, op=op,
                            left=self.coerce(left, operand_t),
                            right=self.coerce(right, operand_t))
        if op in ("land", "lor"):
            return ir.BinOp(result_t, op=op, left=self.as_bool(left),
                            right=self.as_bool(right))
        return ir.BinOp(result_t, op=op, left=self.coerce(left, result_t),
                        right=self.coerce(right, result_t))

    def _binary_builtin(self, name: str, result_t: ScalarType,
                        left: ir.Expr, right: ir.Expr) -> ir.Expr:
        """One element of a two-argument math builtin."""
        if name in ("min", "max", "power"):
            return self._binop("pow" if name == "power" else name,
                               result_t, left, right)
        f64 = ScalarType(ScalarKind.F64)
        return ir.MathCall(result_t, name=name,
                           args=[self.coerce(left, f64),
                                 self.coerce(right, f64)])

    def _make_complex(self, result_t: ScalarType, real: ir.Expr,
                      imag: ir.Expr | None) -> ir.Expr:
        comp = ScalarType(result_t.kind.real_kind)
        if imag is None:
            if real.type.is_complex:
                return self.coerce(real, result_t)
            imag = ir.Const(comp, 0.0)
        return ir.MakeComplex(result_t, real=self.coerce(real, comp),
                              imag=self.coerce(imag, comp))

    def _comparison_operand_type(self, left: ir.Expr,
                                 right: ir.Expr) -> ScalarType:
        kinds = [left.type.kind, right.type.kind]
        if ScalarKind.C128 in kinds or ScalarKind.C64 in kinds:
            return ScalarType(ScalarKind.C128)
        if ScalarKind.F64 in kinds:
            return ScalarType(ScalarKind.F64)
        if ScalarKind.F32 in kinds:
            return ScalarType(ScalarKind.F32)
        if ScalarKind.I32 in kinds:
            return I32
        return ScalarType(ScalarKind.F64)

    def _scalar_Transpose(self, expr: ast.Transpose) -> ir.Expr:
        operand = self.lower_scalar(expr.operand)
        if expr.conjugate and operand.type.is_complex:
            return ir.MathCall(operand.type, name="conj", args=[operand])
        return operand

    def _scalar_CallIndex(self, expr: ast.CallIndex) -> ir.Expr:
        kind = self.spec.call_kinds.get(id(expr))
        return self._scalar_call(expr, known_kind=kind, record=expr)

    def _scalar_call(self, expr: ast.CallIndex, known_kind: str | None,
                     record: ast.Expr) -> ir.Expr:
        kind = known_kind or self.spec.call_kinds.get(id(expr))
        name = expr.target.name
        if kind == "index":
            return self._scalar_index_load(expr)
        if kind == "call" or (kind is None and
                              self.spec.call_targets.get(id(expr))):
            names = self._emit_user_call(expr, result_names=None)
            if not names:
                self.fail(f"function {name!r} returns no value", expr)
            result_type = self.fn.local_type(names[0])
            return ir.VarRef(result_type, name=names[0])
        builtin = lookup_builtin(name)
        if builtin is None:
            self.fail(f"internal: unresolved call to {name!r}", expr)
        return self._scalar_builtin(builtin, expr, record)

    def _scalar_index_load(self, expr: ast.CallIndex) -> ir.Expr:
        array_name = expr.target.name
        array_type = self.var_ir_type(array_name)
        if isinstance(array_type, ScalarType):
            # Indexing a scalar: x(1) or x(1,1) is the scalar itself.
            return self._match_point_type(
                ir.VarRef(array_type, name=self.ir_name(array_name)), expr)
        index = self._linear_index(expr, array_type)
        return self._match_point_type(
            ir.Load(ScalarType(array_type.elem.kind),
                    array=self.ir_name(array_name), index=index), expr)

    def _match_point_type(self, value: ir.Expr, node: ast.Expr) -> ir.Expr:
        """Demote a storage-typed read to its per-point inferred type.

        Storage is declared once with the *join* of every type a
        variable holds, so a variable that is complex anywhere has
        complex storage everywhere.  At program points where inference
        proved the value real, its imaginary component is zero and
        downstream lowering expects a real operand — extracting the
        real component is exact there.  (Found by the differential
        fuzzer: ``sign(v)`` before a branch that turns ``v`` complex
        received a complex operand and miscompiled.)
        """
        if not (isinstance(value.type, ScalarType)
                and value.type.is_complex):
            return value
        types = self.spec.node_types.get(id(node))
        if types is None or types[0].is_complex:
            return value
        comp = ScalarType(value.type.kind.real_kind)
        return ir.MathCall(comp, name="real", args=[value])

    def _linear_index(self, expr: ast.CallIndex,
                      array_type: ArrayType) -> ir.Expr:
        subs = [_zero_based(self.as_i32(self.lower_scalar(arg)))
                for arg in expr.args[:2]]
        if len(subs) == 1:
            return subs[0]
        return self._col_major(subs[0], subs[1], array_type.rows)

    # -- scalar builtins --------------------------------------------------

    def _scalar_builtin(self, builtin, expr: ast.CallIndex,
                        record: ast.Expr) -> ir.Expr:
        name = builtin.name
        result_mtype = self.mtype_of(record)
        result_t = scalar_from_mtype(result_mtype)

        if builtin.kind == "query":
            if result_mtype.value is None:
                self.fail(
                    f"{name}() could not be resolved at compile time",
                    expr)
            return self._const_of(result_mtype)

        if builtin.kind == "constructor":
            # zeros/ones/eye in scalar position.
            value = {"zeros": 0.0, "ones": 1.0, "eye": 1.0}.get(name)
            if value is None or (expr.args and result_mtype.is_scalar is False):
                self.fail(f"{name}() cannot be used as a scalar here", expr)
            return ir.Const(result_t, value)

        if builtin.kind == "cast":
            return self._class_cast(self.lower_scalar(expr.args[0]),
                                    result_t)

        if name == "complex":
            real = self.lower_scalar(expr.args[0])
            imag = self.lower_scalar(expr.args[1]) if len(expr.args) > 1 \
                else None
            return self._make_complex(result_t, real, imag)

        if builtin.kind == "elemwise":
            arg = self.lower_scalar(expr.args[0])
            return self._math1(name, arg, result_t)

        if builtin.kind == "binary_elemwise" or (
                builtin.kind == "minmax" and len(expr.args) == 2):
            left = self.lower_scalar(expr.args[0])
            right = self.lower_scalar(expr.args[1])
            return self._binary_builtin(name, result_t, left, right)

        if builtin.kind in ("reduction", "minmax", "dot"):
            return self._scalar_reduction(name, expr, result_t)

        if builtin.kind == "norm":
            return self._lower_norm(expr, result_t)

        if builtin.kind in ("var", "std"):
            return self._lower_variance(expr, result_t,
                                        take_sqrt=builtin.kind == "std")

        if builtin.kind in ("any", "all"):
            return self._lower_any_all(expr, result_t, builtin.kind)

        if builtin.kind in ("sort", "cumsum"):
            # On a scalar (1x1) value these are the identity.
            return self.coerce(self.lower_scalar(expr.args[0]), result_t)

        self.unsupported(f"builtin {name}() is not supported in scalar "
                         "context", expr)

    def _lower_norm(self, expr: ast.CallIndex, result_t: ScalarType) -> ir.Expr:
        """2-norm of a vector: sqrt(sum |x_k|^2).

        For complex input the per-element term is written as
        re*re + im*im so the complex instruction selector can fuse it
        into a single cmag2 custom instruction.
        """
        arg = expr.args[0]
        arg_mtype = self.mtype_of(arg)
        if arg_mtype.is_scalar:
            value = self.lower_scalar(arg)
            return self._math1("abs", value, result_t)
        src = self._materialize(arg)
        src_type = self._array_type_of(arg)
        elem = ScalarType(src_type.elem.kind)
        acc = self.temp("acc", result_t)
        k = self._int_var("k")
        self.emit(ir.AssignVar(acc, ir.Const(result_t, 0.0)))

        def load() -> ir.Expr:
            return ir.Load(elem, array=src, index=ir.VarRef(I32, k))

        if elem.is_complex:
            comp = ScalarType(elem.kind.real_kind)

            def part(name: str) -> ir.Expr:
                return ir.MathCall(comp, name=name, args=[load()])

            term: ir.Expr = self.coerce(ir.BinOp(
                comp, op="add",
                left=ir.BinOp(comp, op="mul", left=part("real"),
                              right=part("real")),
                right=ir.BinOp(comp, op="mul", left=part("imag"),
                               right=part("imag"))), result_t)
        else:
            term = ir.BinOp(result_t, op="mul",
                            left=self.coerce(load(), result_t),
                            right=self.coerce(load(), result_t))
        self.emit(self._for(k, src_type.numel, [ir.AssignVar(acc, ir.BinOp(
            result_t, op="add", left=ir.VarRef(result_t, acc),
            right=term))]))
        return ir.MathCall(result_t, name="sqrt",
                           args=[ir.VarRef(result_t, acc)])

    def _lower_variance(self, expr: ast.CallIndex, result_t: ScalarType,
                        take_sqrt: bool) -> ir.Expr:
        """Sample variance (MATLAB's default N-1 normalization)."""
        arg = expr.args[0]
        arg_mtype = self.mtype_of(arg)
        if arg_mtype.is_scalar:
            return ir.Const(result_t, 0.0)  # var of a scalar is 0
        src = self._materialize(arg)
        src_type = self._array_type_of(arg)
        elem = ScalarType(src_type.elem.kind)
        n = src_type.numel
        if n == 1:
            return ir.Const(result_t, 0.0)

        mu = self.temp("mu", result_t)
        acc = self.temp("acc", result_t)
        k = self._int_var("k")

        def load() -> ir.Expr:
            return self.coerce(ir.Load(elem, array=src,
                                       index=ir.VarRef(I32, k)), result_t)

        def delta() -> ir.Expr:
            return ir.BinOp(result_t, op="sub", left=load(),
                            right=ir.VarRef(result_t, mu))

        self.emit(ir.AssignVar(mu, ir.Const(result_t, 0.0)))
        self.emit(self._for(k, n, [ir.AssignVar(mu, ir.BinOp(
            result_t, op="add", left=ir.VarRef(result_t, mu),
            right=load()))]))
        self.emit(ir.AssignVar(mu, ir.BinOp(
            result_t, op="mul", left=ir.VarRef(result_t, mu),
            right=ir.Const(result_t, 1.0 / n))))

        self.emit(ir.AssignVar(acc, ir.Const(result_t, 0.0)))
        self.emit(self._for(k, n, [ir.AssignVar(acc, ir.BinOp(
            result_t, op="add", left=ir.VarRef(result_t, acc),
            right=ir.BinOp(result_t, op="mul", left=delta(),
                           right=delta())))]))
        variance = ir.BinOp(result_t, op="mul",
                            left=ir.VarRef(result_t, acc),
                            right=ir.Const(result_t, 1.0 / (n - 1)))
        if take_sqrt:
            return ir.MathCall(result_t, name="sqrt", args=[variance])
        return variance

    def _lower_any_all(self, expr: ast.CallIndex, result_t: ScalarType,
                       which: str) -> ir.Expr:
        arg = expr.args[0]
        arg_mtype = self.mtype_of(arg)
        bool_t = ScalarType(ScalarKind.BOOL)
        if arg_mtype.is_scalar:
            return self.as_bool(self.lower_scalar(arg))
        src = self._materialize(arg)
        src_type = self._array_type_of(arg)
        elem = ScalarType(src_type.elem.kind)
        acc = self.temp("acc", bool_t)
        k = self._int_var("k")
        self.emit(ir.AssignVar(acc, ir.Const(bool_t, which == "all")))
        nonzero = self.as_bool(ir.Load(elem, array=src,
                                       index=ir.VarRef(I32, k)))
        op = "lor" if which == "any" else "land"
        self.emit(self._for(k, src_type.numel, [ir.AssignVar(acc, ir.BinOp(
            bool_t, op=op, left=ir.VarRef(bool_t, acc), right=nonzero))]))
        return ir.VarRef(bool_t, acc)

    def _math1(self, name: str, arg: ir.Expr, result_t: ScalarType) -> ir.Expr:
        if name in ("real", "imag", "conj", "angle", "abs") and \
                arg.type.is_complex:
            mapped = {"angle": "arg"}.get(name, name)
            return ir.MathCall(result_t, name=mapped, args=[arg])
        if name == "real":
            return self.coerce(arg, result_t)
        if name == "imag":
            return ir.Const(result_t, 0.0)
        if name == "conj":
            return self.coerce(arg, result_t)
        if name == "angle":
            # angle(x) for real x: 0 or pi.
            f64 = ScalarType(ScalarKind.F64)
            return ir.MathCall(result_t, name="atan2",
                               args=[ir.Const(f64, 0.0),
                                     self.coerce(arg, f64)])
        operand = arg
        if not operand.type.is_complex and not operand.type.is_float:
            operand = ir.Cast(ScalarType(ScalarKind.F64), operand=operand)
        return ir.MathCall(result_t, name=name, args=[operand])

    def _scalar_reduction(self, name: str, expr: ast.CallIndex,
                          result_t: ScalarType) -> ir.Expr:
        arg = expr.args[0]
        arg_mtype = self.mtype_of(arg)
        if arg_mtype.is_scalar:
            value = self.lower_scalar(arg)
            if name == "dot" and len(expr.args) == 2:
                other = self.lower_scalar(expr.args[1])
                left = value
                if left.type.is_complex:
                    left = ir.MathCall(left.type, name="conj", args=[left])
                return ir.BinOp(result_t, op="mul",
                                left=self.coerce(left, result_t),
                                right=self.coerce(other, result_t))
            return self.coerce(value, result_t)

        src = self._materialize(arg)
        src_type = self._array_type_of(arg)
        elem = ScalarType(src_type.elem.kind)
        n = src_type.numel
        acc_t = result_t
        acc = self.temp("acc", acc_t)
        k = self._int_var("k")

        if name in ("sum", "mean", "prod", "dot"):
            init = 1.0 if name == "prod" else 0.0
            self.emit(ir.AssignVar(acc, ir.Const(acc_t, init)))
            load = ir.Load(elem, array=src, index=ir.VarRef(I32, k))
            if name == "dot":
                # Built once, ahead of the loop that reads it.
                other = self._materialize(expr.args[1])
                other_type = self._array_type_of(expr.args[1])
                lhs = load
                if elem.is_complex:
                    lhs = ir.MathCall(elem, name="conj", args=[lhs])
                rhs = ir.Load(ScalarType(other_type.elem.kind), array=other,
                              index=ir.VarRef(I32, k))
                term = ir.BinOp(acc_t, op="mul",
                                left=self.coerce(lhs, acc_t),
                                right=self.coerce(rhs, acc_t))
            else:
                term = self.coerce(load, acc_t)
            op = "mul" if name == "prod" else "add"
            self.emit(self._for(k, n, [ir.AssignVar(acc, ir.BinOp(
                acc_t, op=op, left=ir.VarRef(acc_t, acc), right=term))]))
            result: ir.Expr = ir.VarRef(acc_t, acc)
            if name == "mean":
                result = ir.BinOp(acc_t, op="mul", left=result,
                                  right=ir.Const(
                                      acc_t, self._one_over(n, acc_t)))
            return result

        if name in ("min", "max"):
            self.emit(ir.AssignVar(acc, self.coerce(
                ir.Load(elem, array=src, index=ir.Const(I32, 0)), acc_t)))
            load = self.coerce(ir.Load(elem, array=src,
                                       index=ir.VarRef(I32, k)), acc_t)
            self.emit(self._for(k, n, [ir.AssignVar(acc, ir.BinOp(
                acc_t, op=name, left=ir.VarRef(acc_t, acc), right=load))],
                start=1))
            return ir.VarRef(acc_t, acc)

        self.unsupported(f"reduction {name}() is not supported", expr)

    def _one_over(self, n: int, acc_t: ScalarType):
        if acc_t.is_complex:
            return complex(1.0 / n, 0.0)
        return 1.0 / n

    # ------------------------------------------------------------------
    # Coercions
    # ------------------------------------------------------------------

    def coerce(self, expr: ir.Expr, target: IRType) -> ir.Expr:
        if not isinstance(target, ScalarType):
            raise LoweringError("internal: coerce target must be scalar")
        if isinstance(expr.type, ScalarType) and expr.type == target:
            return expr
        if isinstance(expr, ir.Const):
            return self._coerce_const(expr, target)
        return ir.Cast(target, operand=expr)

    def _coerce_const(self, expr: ir.Const, target: ScalarType) -> ir.Expr:
        value = expr.value
        kind = target.kind
        try:
            if kind.is_complex:
                return ir.Const(target, complex(value))
            if kind is ScalarKind.BOOL:
                return ir.Const(target, bool(value))
            if kind.is_integer:
                return ir.Const(target, int(value))
            return ir.Const(target, float(value))
        except TypeError:
            return ir.Cast(target, operand=expr)

    def _class_cast(self, value: ir.Expr, target: ScalarType) -> ir.Expr:
        """``int8(value)`` and the other class conversions.  Narrowing
        an integer saturates, as in MATLAB (a C conversion would wrap):
        the value is clamped to the target's range in ``I32`` first."""
        source = value.type.kind if isinstance(value.type, ScalarType) \
            else None
        if target.kind in (ScalarKind.I8, ScalarKind.I16) and \
                source is not None and source.is_integer:
            low, high = EXACT_INTEGERS[target.kind]
            if EXACT_INTEGERS[source][0] < low or \
                    EXACT_INTEGERS[source][1] > high:
                value = ir.BinOp(
                    I32, op="max",
                    left=ir.BinOp(I32, op="min", left=self.as_i32(value),
                                  right=ir.Const(I32, high)),
                    right=ir.Const(I32, low))
        return ir.Cast(target, operand=value)

    def as_i32(self, expr: ir.Expr) -> ir.Expr:
        if isinstance(expr.type, ScalarType) and \
                expr.type.kind is ScalarKind.I32:
            return expr
        if isinstance(expr, ir.Const) and not isinstance(expr.value, complex):
            return ir.Const(I32, int(float(expr.value)))
        # An index's i32 converted to a float and back keeps its value;
        # a conversion to a narrower integer class does not.
        if isinstance(expr, ir.Cast) and expr.type.is_float and \
                isinstance(expr.operand.type, ScalarType) and \
                expr.operand.type.kind is ScalarKind.I32:
            return expr.operand
        return ir.Cast(I32, operand=expr)

    def as_bool(self, expr: ir.Expr) -> ir.Expr:
        if isinstance(expr.type, ScalarType) and \
                expr.type.kind is ScalarKind.BOOL:
            return expr
        zero = ir.Const(expr.type, 0)
        return ir.BinOp(ScalarType(ScalarKind.BOOL), op="ne", left=expr,
                        right=self._coerce_const(zero, expr.type)
                        if isinstance(zero, ir.Const) else zero)

    # ------------------------------------------------------------------
    # Array expression lowering
    # ------------------------------------------------------------------

    def _array_type_of(self, expr: ast.Expr) -> ArrayType:
        ir_type = from_mtype(self.mtype_of(expr))
        if not isinstance(ir_type, ArrayType):
            raise LoweringError("internal: expected an array-typed node")
        if isinstance(expr, ast.Identifier) and \
                self.spec.final_env.lookup(expr.name) is not None:
            # The C buffer is declared at the flow-merged type; a read
            # where the variable is currently real can still sit in
            # complex (or wider) storage because a later branch assigns
            # complex into it.  Loads must carry the storage element
            # type — consumers coerce to the flow type, which for
            # complex storage at a real program point takes the real
            # part (the imaginary part is zero there by construction).
            # The flow shape is kept: loop extents follow the value,
            # not the (maximal) buffer.
            stored = self.var_ir_type(expr.name)
            if isinstance(stored, ArrayType) and stored.elem != ir_type.elem:
                return ArrayType(stored.elem, ir_type.rows, ir_type.cols)
        return ir_type

    def _materialize(self, expr: ast.Expr) -> str:
        """Ensure ``expr``'s array value lives in a named array."""
        if isinstance(expr, ast.Identifier) and \
                self.spec.final_env.lookup(expr.name) is not None:
            return self.ir_name(expr.name)
        array_type = self._array_type_of(expr)
        name = self.temp("arr", array_type)
        self._lower_array_into(expr, name, array_type)
        return name

    def _lower_array_into(self, expr: ast.Expr, dest: str,
                          dest_type: ArrayType | None = None) -> None:
        if dest_type is None:
            declared = self.fn.local_type(dest)
            if not isinstance(declared, ArrayType):
                raise LoweringError(f"internal: {dest!r} is not an array")
            dest_type = declared

        value_mtype = self.mtype_of(expr)
        if value_mtype.is_scalar:
            # Scalar assigned to array variable: only legal when the
            # destination is 1x1 (checked by inference); fill it.
            value = self.coerce(self.lower_scalar(expr),
                                ScalarType(dest_type.elem.kind))
            self.emit(ir.Store(array=dest, index=ir.Const(I32, 0),
                               value=value))
            return

        if isinstance(expr, ast.Identifier):
            src = self.ir_name(expr.name)
            if src != dest:
                self._emit_array_copy(dest, dest_type, src,
                                      self._array_type_of(expr))
            return

        if isinstance(expr, ast.MatrixLit):
            self._lower_matrix_literal(expr, dest, dest_type)
            return

        if isinstance(expr, ast.Range):
            self._lower_range_fill(expr, dest, dest_type)
            return

        if isinstance(expr, ast.Transpose):
            self._lower_transpose(expr, dest, dest_type)
            return

        if self._is_matmul(expr):
            self._lower_matmul(expr, dest, dest_type)
            return

        if isinstance(expr, (ast.BinaryOp, ast.UnaryOp)):
            self._emit_elementwise(expr, dest, dest_type)
            return

        if isinstance(expr, ast.CallIndex):
            kind = self.spec.call_kinds.get(id(expr))
            if kind == "index":
                self._lower_region_read(expr, dest, dest_type)
                return
            if kind == "call":
                self._emit_user_call(expr, result_names=[dest])
                return
            if kind == "builtin":
                self._lower_array_builtin(expr, dest, dest_type)
                return

        self.unsupported(
            f"cannot lower array expression {type(expr).__name__}", expr)

    def _emit_array_copy(self, dest: str, dest_type: ArrayType, src: str,
                         src_type: ArrayType) -> None:
        if dest_type.numel != src_type.numel:
            raise LoweringError(
                f"internal: array copy size mismatch {dest_type.numel} vs "
                f"{src_type.numel}")
        if dest_type.elem == src_type.elem:
            self.emit(ir.CopyArray(dst=dest, src=src))
            return
        k = self._int_var("k")
        load = ir.Load(ScalarType(src_type.elem.kind), array=src,
                       index=ir.VarRef(I32, k))
        self.emit(self._for(k, dest_type.numel, [ir.Store(
            array=dest, index=ir.VarRef(I32, k),
            value=self.coerce(load, ScalarType(dest_type.elem.kind)))]))

    # -- element-wise fusion ------------------------------------------------

    def _emit_elementwise(self, expr: ast.Expr, dest: str,
                          dest_type: ArrayType) -> None:
        if self.mode == "naive" and isinstance(expr, (ast.BinaryOp,
                                                      ast.UnaryOp)):
            self._emit_elementwise_naive(expr, dest, dest_type)
            return
        # The fused loop; the baseline reaches it only for builtins.
        hoisted: dict[int, ir.Expr] = {}
        self._hoist_scalars(expr, hoisted)
        k = self._int_var("k")
        self.push_block()
        value = self._scalarize(expr, k, hoisted)
        self.emit(ir.Store(array=dest, index=_i32(k),
                           value=self.coerce(value,
                                             ScalarType(dest_type.elem.kind))))
        self.emit(self._for(k, dest_type.numel, self.pop_block()))

    def _hoist_scalars(self, expr: ast.Expr, hoisted: dict[int, ir.Expr]) -> None:
        """Pre-compute maximal scalar subtrees before the fused loop."""
        if self.mtype_of(expr).is_scalar:
            value = self.lower_scalar(expr)
            hoisted[id(expr)] = self._hoist_scalar_value(value, "h")
            return
        if isinstance(expr, ast.BinaryOp):
            self._hoist_scalars(expr.left, hoisted)
            self._hoist_scalars(expr.right, hoisted)
        elif isinstance(expr, (ast.UnaryOp, ast.Transpose)):
            self._hoist_scalars(expr.operand, hoisted)
        elif isinstance(expr, ast.CallIndex):
            kind = self.spec.call_kinds.get(id(expr))
            name = expr.target.name if isinstance(expr.target,
                                                  ast.Identifier) else ""
            if kind == "builtin" and (name in _ELEMENTWISE_MATH or
                                      name in _CAST_BUILTINS or
                                      name == "complex"):
                for arg in expr.args:
                    self._hoist_scalars(arg, hoisted)
            # Other array-producing nodes are materialized whole, so
            # their internals need no hoisting here.

    def _hoist_scalar_value(self, value: ir.Expr, prefix: str) -> ir.Expr:
        if isinstance(value, (ir.Const, ir.VarRef)):
            return value
        name = self.temp(prefix, value.type)
        self.emit(ir.AssignVar(name, value))
        return ir.VarRef(value.type, name)

    def _scalarize(self, expr: ast.Expr, k: str,
                   hoisted: dict[int, ir.Expr]) -> ir.Expr:
        """Per-element value of ``expr`` at linear position ``k`` (the
        loop counter's name: every index reads it with a node of its
        own, so the lowered IR stays a tree)."""
        pre = hoisted.get(id(expr))
        if pre is not None:
            return pre
        if self.mtype_of(expr).is_scalar:
            # A scalar subtree not pre-hoisted (naive path).
            return self.lower_scalar(expr)

        if isinstance(expr, ast.Identifier):
            array_type = self._array_type_of(expr)
            return ir.Load(ScalarType(array_type.elem.kind),
                           array=self.ir_name(expr.name), index=_i32(k))

        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            mapped = _ELEMENTWISE_BINOPS.get(op)
            if mapped is None and op in ("*", "/", "\\", "^"):
                left_scalar = self.mtype_of(expr.left).is_scalar
                right_scalar = self.mtype_of(expr.right).is_scalar
                if op == "*" and (left_scalar or right_scalar):
                    mapped = "mul"
                elif op == "/" and right_scalar:
                    mapped = "div"
                elif op == "\\" and left_scalar:
                    mapped = "div"
                elif op == "^" and (left_scalar or right_scalar):
                    mapped = "pow"
            if mapped is None:
                # Matrix product inside an element-wise tree: materialize.
                return self._scalarize_via_temp(expr, k)
            result_t = scalar_from_mtype(self.mtype_of(expr).element_type())
            left = self._scalarize(expr.left, k, hoisted)
            right = self._scalarize(expr.right, k, hoisted)
            if expr.op in ("\\", ".\\"):
                left, right = right, left
            return self._binop(mapped, result_t, left, right)

        if isinstance(expr, ast.UnaryOp):
            result_t = scalar_from_mtype(self.mtype_of(expr).element_type())
            operand = self._scalarize(expr.operand, k, hoisted)
            return self._unop(expr.op, result_t, operand)

        if isinstance(expr, ast.Transpose):
            operand_mtype = self.mtype_of(expr.operand)
            if operand_mtype.is_vector:
                value = self._scalarize(expr.operand, k, hoisted)
                if expr.conjugate and value.type.is_complex:
                    return ir.MathCall(value.type, name="conj", args=[value])
                return value
            return self._scalarize_via_temp(expr, k)

        if isinstance(expr, ast.CallIndex):
            kind = self.spec.call_kinds.get(id(expr))
            name = expr.target.name if isinstance(expr.target,
                                                  ast.Identifier) else ""
            if kind == "builtin":
                result_t = scalar_from_mtype(
                    self.mtype_of(expr).element_type())
                if name in _ELEMENTWISE_MATH:
                    arg = self._scalarize(expr.args[0], k, hoisted)
                    return self._math1(name, arg, result_t)
                if name in _CAST_BUILTINS:
                    return self._class_cast(
                        self._scalarize(expr.args[0], k, hoisted), result_t)
                if name == "complex":
                    real = self._scalarize(expr.args[0], k, hoisted)
                    imag = self._scalarize(expr.args[1], k, hoisted) \
                        if len(expr.args) > 1 else None
                    return self._make_complex(result_t, real, imag)
                if name in ("mod", "rem", "atan2", "hypot", "power", "min",
                            "max") and len(expr.args) == 2:
                    left = self._scalarize(expr.args[0], k, hoisted)
                    right = self._scalarize(expr.args[1], k, hoisted)
                    return self._binary_builtin(name, result_t, left, right)
            if kind == "index":
                shifted = self._affine_region_index(expr, k)
                if shifted is not None:
                    array_type = self.var_ir_type(expr.target.name)
                    return ir.Load(ScalarType(array_type.elem.kind),
                                   array=self.ir_name(expr.target.name),
                                   index=shifted)
            return self._scalarize_via_temp(expr, k)

        return self._scalarize_via_temp(expr, k)

    def _affine_region_index(self, expr: ast.CallIndex,
                             k: str) -> ir.Expr | None:
        """Map fused-loop position k through a simple slice x(a:b)/x(:).

        Returns a linear index expression into the *source* array when
        the subscript is a whole-array colon or a unit-step range with a
        constant start; None otherwise (caller materializes).
        """
        if len(expr.args) != 1:
            return None
        arg = expr.args[0]
        if isinstance(arg, ast.ColonAll):
            return _i32(k)
        if isinstance(arg, ast.Range):
            start_t = self.mtype_of(arg.start)
            step_value = 1.0
            if arg.step is not None:
                step_t = self.mtype_of(arg.step)
                if step_t.value is None:
                    return None
                step_value = float(step_t.value)
            if step_value != 1.0 or start_t.value is None or \
                    isinstance(start_t.value, complex):
                return None
            offset = int(float(start_t.value)) - 1
            if offset == 0:
                return _i32(k)
            return ir.BinOp(I32, op="add", left=_i32(k),
                            right=ir.Const(I32, offset))
        return None

    def _scalarize_via_temp(self, expr: ast.Expr, k: str) -> ir.Expr:
        # Materialization must happen *before* the loop we are inside of;
        # since blocks nest, emit into the enclosing block.
        inner = self._blocks.pop()
        try:
            name = self._materialize(expr)
        finally:
            self._blocks.append(inner)
        array_type = self.fn.local_type(name)
        return ir.Load(ScalarType(array_type.elem.kind), array=name,
                       index=_i32(k))

    def _emit_elementwise_naive(self, expr: ast.BinaryOp | ast.UnaryOp,
                                dest: str, dest_type: ArrayType) -> None:
        """Baseline lowering: one temporary + one loop per operation."""

        def operand_of(node: ast.Expr) -> ir.Expr | str:
            if self.mtype_of(node).is_scalar:
                return self._hoist_scalar_value(self.lower_scalar(node), "h")
            return self._materialize(node)

        def at(operand: ir.Expr | str, k: str) -> ir.Expr:
            if isinstance(operand, str):
                at_type = self.fn.local_type(operand)
                return ir.Load(ScalarType(at_type.elem.kind), array=operand,
                               index=_i32(k))
            return operand

        result_t = scalar_from_mtype(self.mtype_of(expr).element_type())
        if isinstance(expr, ast.BinaryOp):
            left_operand = operand_of(expr.left)
            right_operand = operand_of(expr.right)
            k = self._int_var("k")
            left = at(left_operand, k)
            right = at(right_operand, k)
            if expr.op in ("\\", ".\\"):
                left, right = right, left
            value = self._binop(_SCALAR_BINOPS[expr.op], result_t, left,
                                right)
        else:
            src = operand_of(expr.operand)
            k = self._int_var("k")
            operand = at(src, k)
            value = self.coerce(operand, result_t) if expr.op == "+" \
                else self._unop(expr.op, result_t, operand)
        self.emit(self._for(k, dest_type.numel, [ir.Store(
            array=dest, index=_i32(k),
            value=self.coerce(value, ScalarType(dest_type.elem.kind)))]))

    # -- specific array forms ----------------------------------------------

    def _lower_matrix_literal(self, expr: ast.MatrixLit, dest: str,
                              dest_type: ArrayType) -> None:
        dest_elem = ScalarType(dest_type.elem.kind)
        all_scalars = all(self.mtype_of(e).is_scalar
                          for row in expr.rows for e in row)
        if all_scalars:
            for r, row in enumerate(expr.rows):
                for c, element in enumerate(row):
                    value = self.coerce(self.lower_scalar(element), dest_elem)
                    self.emit(ir.Store(
                        array=dest, index=self._col_major(r, c, dest_type.rows),
                        value=value))
            return
        # General concatenation: copy blocks into their offsets.
        row_offset = 0
        for row in expr.rows:
            col_offset = 0
            row_height = None
            for element in row:
                shape = self.mtype_of(element).shape
                er, ec = shape.rows, shape.cols
                row_height = er if row_height is None else row_height
                if self.mtype_of(element).is_scalar:
                    value = self.coerce(self.lower_scalar(element), dest_elem)
                    self.emit(ir.Store(
                        array=dest, index=self._col_major(
                            row_offset, col_offset, dest_type.rows),
                        value=value))
                else:
                    src = self._materialize(element)
                    src_type = self._array_type_of(element)
                    self._copy_block(dest, dest_type, src, src_type,
                                     row_offset, col_offset)
                col_offset += ec
            row_offset += row_height or 1

    def _copy_block(self, dest: str, dest_type: ArrayType, src: str,
                    src_type: ArrayType, row_offset: int,
                    col_offset: int) -> None:
        dest_elem = ScalarType(dest_type.elem.kind)
        src_elem = ScalarType(src_type.elem.kind)
        jc = self._int_var("j")
        ic = self._int_var("i")
        dest_row = ir.BinOp(I32, op="add", left=ir.VarRef(I32, ic),
                            right=ir.Const(I32, row_offset))
        dest_col = ir.BinOp(I32, op="add", left=ir.VarRef(I32, jc),
                            right=ir.Const(I32, col_offset))
        load = ir.Load(src_elem, array=src,
                       index=self._col_major(ic, jc, src_type.rows))
        store = ir.Store(array=dest,
                         index=self._col_major(dest_row, dest_col,
                                               dest_type.rows),
                         value=self.coerce(load, dest_elem))
        self.emit(self._for(jc, src_type.cols,
                            [self._for(ic, src_type.rows, [store])]))

    def _lower_range_fill(self, expr: ast.Range, dest: str,
                          dest_type: ArrayType) -> None:
        dest_elem = ScalarType(dest_type.elem.kind)
        f64 = ScalarType(ScalarKind.F64)
        start = self._hoist_scalar_value(
            self.coerce(self.lower_scalar(expr.start), f64), "rs")
        step = self._hoist_scalar_value(
            self.coerce(self.lower_scalar(expr.step), f64), "rp") \
            if expr.step is not None else ir.Const(f64, 1.0)
        k = self._int_var("k")
        value = ir.BinOp(f64, op="add", left=start,
                         right=ir.BinOp(f64, op="mul",
                                        left=ir.Cast(f64,
                                                     operand=ir.VarRef(I32, k)),
                                        right=step))
        self.emit(self._for(k, dest_type.numel, [ir.Store(
            array=dest, index=ir.VarRef(I32, k),
            value=self.coerce(value, dest_elem))]))

    def _lower_transpose(self, expr: ast.Transpose, dest: str,
                         dest_type: ArrayType) -> None:
        operand_mtype = self.mtype_of(expr.operand)
        src = self._materialize(expr.operand)
        src_type = self._array_type_of(expr.operand)
        src_elem = ScalarType(src_type.elem.kind)
        dest_elem = ScalarType(dest_type.elem.kind)
        conj = expr.conjugate and src_elem.is_complex

        if operand_mtype.is_vector:
            k = self._int_var("k")
            load: ir.Expr = ir.Load(src_elem, array=src,
                                    index=ir.VarRef(I32, k))
            if conj:
                load = ir.MathCall(src_elem, name="conj", args=[load])
            self.emit(self._for(k, dest_type.numel, [ir.Store(
                array=dest, index=ir.VarRef(I32, k),
                value=self.coerce(load, dest_elem))]))
            return

        jc = self._int_var("j")
        ic = self._int_var("i")
        load = ir.Load(src_elem, array=src,
                       index=self._col_major(ic, jc, src_type.rows))
        if conj:
            load = ir.MathCall(src_elem, name="conj", args=[load])
        store = ir.Store(array=dest,
                         index=self._col_major(jc, ic, dest_type.rows),
                         value=self.coerce(load, dest_elem))
        self.emit(self._for(jc, src_type.cols,
                            [self._for(ic, src_type.rows, [store])]))

    def _lower_matmul(self, expr: ast.BinaryOp, dest: str,
                      dest_type: ArrayType) -> None:
        a = self._materialize(expr.left)
        b = self._materialize(expr.right)
        a_type = self._array_type_of(expr.left)
        b_type = self._array_type_of(expr.right)
        dest_elem = ScalarType(dest_type.elem.kind)
        m, kdim, n = a_type.rows, a_type.cols, b_type.cols

        j = self._int_var("j")
        kk = self._int_var("p")
        i = self._int_var("i")
        bkj = self.temp("bkj", dest_elem)

        # Zero the destination column, then accumulate rank-1 updates
        # (jki order: the innermost loop runs down contiguous columns of
        # `a` and `dest` — stride-1, exactly what the vectorizer wants).
        zero_loop = self._for(i, m, [ir.Store(
            array=dest, index=self._col_major(i, j, m),
            value=self._coerce_const(ir.Const(dest_elem, 0), dest_elem))])

        a_load = self.coerce(
            ir.Load(ScalarType(a_type.elem.kind), array=a,
                    index=self._col_major(i, kk, m)),
            dest_elem)
        prod = ir.BinOp(dest_elem, op="mul", left=a_load,
                        right=ir.VarRef(dest_elem, bkj))
        old = ir.Load(dest_elem, array=dest, index=self._col_major(i, j, m))
        acc_inner = self._for(i, m, [ir.Store(
            array=dest, index=self._col_major(i, j, m),
            value=ir.BinOp(dest_elem, op="add", left=old, right=prod))])

        b_load = self.coerce(
            ir.Load(ScalarType(b_type.elem.kind), array=b,
                    index=self._col_major(kk, j, b_type.rows)),
            dest_elem)
        k_loop = self._for(kk, kdim,
                           [ir.AssignVar(bkj, b_load), acc_inner])
        self.emit(self._for(j, n, [zero_loop, k_loop]))

    # -- regions ------------------------------------------------------------

    def _subscript_generator(self, arg: ast.Expr, dim_size: int,
                             counter: ir.Expr) -> tuple[ir.Expr, int]:
        """(0-based index expr for position ``counter``, trip count)."""
        if isinstance(arg, ast.ColonAll):
            return counter, dim_size
        mtype = self.mtype_of(arg)
        if mtype.is_scalar:
            return _zero_based(self.as_i32(self.lower_scalar(arg))), 1
        count = mtype.shape.numel()
        if count is None:
            self.fail("subscript extent is not known at compile time", arg)
        if isinstance(arg, ast.Range):
            step_value = 1.0
            if arg.step is not None:
                step_t = self.mtype_of(arg.step)
                if step_t.value is None:
                    self.fail("range-subscript step must be a compile-time "
                              "constant", arg)
                step_value = float(step_t.value)
            base = _zero_based(self.as_i32(self.lower_scalar(arg.start)))
            if step_value == 1.0:
                offset = ir.BinOp(I32, op="add", left=base, right=counter)
            else:
                scaled = ir.BinOp(I32, op="mul", left=counter,
                                  right=ir.Const(I32, int(step_value)))
                offset = ir.BinOp(I32, op="add", left=base, right=scaled)
            return offset, count
        # General vector subscript: gather through the index array,
        # built once ahead of the loop whose body block is open.
        loop_body = self.pop_block()
        src = self._materialize(arg)
        self._blocks.append(loop_body)
        src_type = self._array_type_of(arg)
        idx_load = ir.Load(ScalarType(src_type.elem.kind), array=src,
                           index=counter)
        return _zero_based(self.as_i32(idx_load)), count

    def _lower_region_read(self, expr: ast.CallIndex, dest: str,
                           dest_type: ArrayType) -> None:
        array_name = expr.target.name
        array_type = self.var_ir_type(array_name)
        if not isinstance(array_type, ArrayType):
            self.fail("cannot slice a scalar", expr)
        src = self.ir_name(array_name)
        src_elem = ScalarType(array_type.elem.kind)
        dest_elem = ScalarType(dest_type.elem.kind)

        if len(expr.args) == 1:
            k = self._int_var("k")
            self.push_block()
            index, count = self._subscript_generator(
                expr.args[0], array_type.numel, ir.VarRef(I32, k))
            load = ir.Load(src_elem, array=src, index=index)
            self.emit(ir.Store(array=dest, index=ir.VarRef(I32, k),
                               value=self.coerce(load, dest_elem)))
            self.emit(self._for(k, count, self.pop_block()))
            return

        jc = self._int_var("j")
        ic = self._int_var("i")
        self.push_block()
        row_idx, row_count = self._subscript_generator(
            expr.args[0], array_type.rows, ir.VarRef(I32, ic))
        col_idx, col_count = self._subscript_generator(
            expr.args[1], array_type.cols, ir.VarRef(I32, jc))
        load = ir.Load(src_elem, array=src,
                       index=self._col_major(row_idx, col_idx,
                                             array_type.rows))
        self.emit(ir.Store(array=dest,
                           index=self._col_major(ic, jc, dest_type.rows),
                           value=self.coerce(load, dest_elem)))
        self.emit(self._for(jc, col_count,
                            [self._for(ic, row_count, self.pop_block())]))

    def _store_region(self, target: ast.CallIndex, dest: str,
                      dest_type: ArrayType, value: ast.Expr) -> None:
        value_mtype = self.mtype_of(value)
        dest_elem = ScalarType(dest_type.elem.kind)
        value_is_scalar = value_mtype.is_scalar
        if value_is_scalar:
            scalar = self._hoist_scalar_value(
                self.coerce(self.lower_scalar(value), dest_elem), "sv")
            src = None
            src_type = None
        else:
            src = self._materialize(value)
            src_type = self._array_type_of(value)

        def value_at(position: ir.Expr) -> ir.Expr:
            if value_is_scalar:
                return scalar
            load = ir.Load(ScalarType(src_type.elem.kind), array=src,
                           index=position)
            return self.coerce(load, dest_elem)

        if len(target.args) == 1:
            k = self._int_var("k")
            self.push_block()
            index, count = self._subscript_generator(
                target.args[0], dest_type.numel, ir.VarRef(I32, k))
            self.emit(ir.Store(array=dest, index=index,
                               value=value_at(ir.VarRef(I32, k))))
            self.emit(self._for(k, count, self.pop_block()))
            return

        jc = self._int_var("j")
        ic = self._int_var("i")
        self.push_block()
        row_idx, row_count = self._subscript_generator(
            target.args[0], dest_type.rows, ir.VarRef(I32, ic))
        col_idx, col_count = self._subscript_generator(
            target.args[1], dest_type.cols, ir.VarRef(I32, jc))
        self.emit(ir.Store(
            array=dest,
            index=self._col_major(row_idx, col_idx, dest_type.rows),
            value=value_at(self._col_major(ic, jc, row_count))))
        self.emit(self._for(jc, col_count,
                            [self._for(ic, row_count, self.pop_block())]))

    # -- array builtins -------------------------------------------------------

    def _lower_array_builtin(self, expr: ast.CallIndex, dest: str,
                             dest_type: ArrayType) -> None:
        name = expr.target.name
        dest_elem = ScalarType(dest_type.elem.kind)

        if name in ("zeros", "ones"):
            fill = 0.0 if name == "zeros" else 1.0
            self._fill(dest, dest_type, ir.Const(dest_elem, fill))
            return
        if name == "eye":
            self._fill(dest, dest_type, ir.Const(dest_elem, 0.0))
            diag = min(dest_type.rows, dest_type.cols)
            k = self._int_var("k")
            index = ir.BinOp(
                I32, op="mul", left=ir.VarRef(I32, k),
                right=ir.Const(I32, dest_type.rows + 1))
            self.emit(self._for(k, diag, [ir.Store(
                array=dest, index=index,
                value=self._coerce_const(ir.Const(dest_elem, 1),
                                         dest_elem))]))
            return
        if name == "linspace":
            self._lower_linspace(expr, dest, dest_type)
            return
        if name == "reshape":
            src = self._materialize(expr.args[0])
            self._emit_array_copy(dest, dest_type, src,
                                  self._array_type_of(expr.args[0]))
            return
        if name in ("fliplr", "flipud"):
            self._lower_flip(expr, dest, dest_type, name)
            return
        if name in ("transpose", "ctranspose"):
            synthetic = ast.Transpose(span=expr.span, operand=expr.args[0],
                                      conjugate=name == "ctranspose")
            self.spec.node_types[id(synthetic)] = \
                self.spec.node_types[id(expr)]
            self._lower_transpose(synthetic, dest, dest_type)
            return
        if name in _ELEMENTWISE_MATH or name in _CAST_BUILTINS or \
                name == "complex" or name in ("mod", "rem", "atan2", "hypot",
                                              "power"):
            self._emit_elementwise(expr, dest, dest_type)
            return
        if name in ("min", "max") and len(expr.args) == 2:
            self._emit_elementwise(expr, dest, dest_type)
            return
        if name in ("sum", "prod", "mean", "min", "max"):
            self._lower_matrix_reduction(expr, dest, dest_type, name)
            return
        if name == "cumsum":
            self._lower_cumsum(expr, dest, dest_type)
            return
        if name == "sort":
            self._lower_sort(expr, dest, dest_type)
            return
        self.unsupported(
            f"builtin {name}() is not supported in array context", expr)

    def _lower_cumsum(self, expr: ast.CallIndex, dest: str,
                      dest_type: ArrayType) -> None:
        src = self._materialize(expr.args[0])
        src_type = self._array_type_of(expr.args[0])
        elem = ScalarType(dest_type.elem.kind)
        run = self.temp("run", elem)
        k = self._int_var("k")
        zero = complex(0) if elem.is_complex else 0.0
        self.emit(ir.AssignVar(run, ir.Const(elem, zero)))
        load = self.coerce(ir.Load(ScalarType(src_type.elem.kind),
                                   array=src, index=ir.VarRef(I32, k)),
                           elem)
        self.emit(self._for(k, dest_type.numel, [
            ir.AssignVar(run, ir.BinOp(elem, op="add",
                                       left=ir.VarRef(elem, run),
                                       right=load)),
            ir.Store(array=dest, index=ir.VarRef(I32, k),
                     value=ir.VarRef(elem, run))]))

    def _lower_sort(self, expr: ast.CallIndex, dest: str,
                    dest_type: ArrayType) -> None:
        """Ascending insertion sort, in place on a copy of the input."""
        src = self._materialize(expr.args[0])
        src_type = self._array_type_of(expr.args[0])
        self._emit_array_copy(dest, dest_type, src, src_type)
        elem = ScalarType(dest_type.elem.kind)
        n = dest_type.numel
        if n <= 1:
            return
        i = self._int_var("i")
        j = self._int_var("j")
        key = self.temp("key", elem)

        # while j >= 0 && dest[j] > key: dest[j+1] = dest[j]; j--
        j_ref = ir.VarRef(I32, j)
        cond = ir.BinOp(
            ScalarType(ScalarKind.BOOL), op="land",
            left=ir.BinOp(ScalarType(ScalarKind.BOOL), op="ge",
                          left=j_ref, right=ir.Const(I32, 0)),
            right=ir.BinOp(ScalarType(ScalarKind.BOOL), op="gt",
                           left=ir.Load(elem, array=dest, index=j_ref),
                           right=ir.VarRef(elem, key)))
        shift = [
            ir.Store(array=dest,
                     index=ir.BinOp(I32, op="add", left=ir.VarRef(I32, j),
                                    right=ir.Const(I32, 1)),
                     value=ir.Load(elem, array=dest,
                                   index=ir.VarRef(I32, j))),
            ir.AssignVar(j, ir.BinOp(I32, op="sub",
                                     left=ir.VarRef(I32, j),
                                     right=ir.Const(I32, 1))),
        ]
        outer_body = [
            ir.AssignVar(key, ir.Load(elem, array=dest,
                                      index=ir.VarRef(I32, i))),
            ir.AssignVar(j, ir.BinOp(I32, op="sub",
                                     left=ir.VarRef(I32, i),
                                     right=ir.Const(I32, 1))),
            ir.While(condition=cond, body=shift),
            ir.Store(array=dest,
                     index=ir.BinOp(I32, op="add", left=ir.VarRef(I32, j),
                                    right=ir.Const(I32, 1)),
                     value=ir.VarRef(elem, key)),
        ]
        self.emit(self._for(i, n, outer_body, start=1))

    def _fill(self, dest: str, dest_type: ArrayType, value: ir.Const) -> None:
        k = self._int_var("k")
        dest_elem = ScalarType(dest_type.elem.kind)
        self.emit(self._for(k, dest_type.numel, [ir.Store(
            array=dest, index=ir.VarRef(I32, k),
            value=self._coerce_const(value, dest_elem))]))

    def _lower_linspace(self, expr: ast.CallIndex, dest: str,
                        dest_type: ArrayType) -> None:
        f64 = ScalarType(ScalarKind.F64)
        dest_elem = ScalarType(dest_type.elem.kind)
        n = dest_type.numel
        start = self._hoist_scalar_value(
            self.coerce(self.lower_scalar(expr.args[0]), f64), "ls")
        stop = self._hoist_scalar_value(
            self.coerce(self.lower_scalar(expr.args[1]), f64), "le")
        denom = max(n - 1, 1)
        step = self._hoist_scalar_value(
            ir.BinOp(f64, op="div",
                     left=ir.BinOp(f64, op="sub", left=stop, right=start),
                     right=ir.Const(f64, float(denom))), "lp")
        k = self._int_var("k")
        value = ir.BinOp(f64, op="add", left=start,
                         right=ir.BinOp(f64, op="mul",
                                        left=ir.Cast(
                                            f64, operand=ir.VarRef(I32, k)),
                                        right=step))
        self.emit(self._for(k, n, [ir.Store(
            array=dest, index=ir.VarRef(I32, k),
            value=self.coerce(value, dest_elem))]))

    def _lower_flip(self, expr: ast.CallIndex, dest: str,
                    dest_type: ArrayType, which: str) -> None:
        src = self._materialize(expr.args[0])
        src_type = self._array_type_of(expr.args[0])
        src_elem = ScalarType(src_type.elem.kind)
        dest_elem = ScalarType(dest_type.elem.kind)
        jc = self._int_var("j")
        ic = self._int_var("i")
        if which == "fliplr":
            src_col = ir.BinOp(I32, op="sub",
                               left=ir.Const(I32, src_type.cols - 1),
                               right=ir.VarRef(I32, jc))
            src_row: ir.Expr = ir.VarRef(I32, ic)
        else:
            src_col = ir.VarRef(I32, jc)
            src_row = ir.BinOp(I32, op="sub",
                               left=ir.Const(I32, src_type.rows - 1),
                               right=ir.VarRef(I32, ic))
        load = ir.Load(src_elem, array=src,
                       index=self._col_major(src_row, src_col,
                                             src_type.rows))
        store = ir.Store(array=dest,
                         index=self._col_major(ic, jc, dest_type.rows),
                         value=self.coerce(load, dest_elem))
        self.emit(self._for(jc, src_type.cols,
                            [self._for(ic, src_type.rows, [store])]))

    def _lower_matrix_reduction(self, expr: ast.CallIndex, dest: str,
                                dest_type: ArrayType, name: str) -> None:
        src = self._materialize(expr.args[0])
        src_type = self._array_type_of(expr.args[0])
        src_elem = ScalarType(src_type.elem.kind)
        dest_elem = ScalarType(dest_type.elem.kind)
        # Reduce along rows (dim=1, the default for matrices): one output
        # per column; or along columns for dim=2.
        dim = 1
        if len(expr.args) == 2:
            dim_t = self.mtype_of(expr.args[1])
            dim = int(float(dim_t.value))
        outer_n = src_type.cols if dim == 1 else src_type.rows
        inner_n = src_type.rows if dim == 1 else src_type.cols
        jc = self._int_var("j")
        ic = self._int_var("i")
        acc = self.temp("acc", dest_elem)

        src_index = self._col_major(ic, jc, src_type.rows) if dim == 1 \
            else self._col_major(jc, ic, src_type.rows)
        load = self.coerce(ir.Load(src_elem, array=src, index=src_index),
                           dest_elem)
        op = {"sum": "add", "mean": "add", "prod": "mul"}.get(name, name)
        update = ir.BinOp(dest_elem, op=op,
                          left=ir.VarRef(dest_elem, acc), right=load)

        init: ir.Expr
        start_i = 0
        if name in ("sum", "mean"):
            init = self._coerce_const(ir.Const(dest_elem, 0), dest_elem)
        elif name == "prod":
            init = self._coerce_const(ir.Const(dest_elem, 1), dest_elem)
        else:
            first_index = ir.BinOp(
                I32, op="mul", left=ir.VarRef(I32, jc),
                right=ir.Const(I32, src_type.rows)) if dim == 1 else \
                ir.VarRef(I32, jc)
            init = self.coerce(ir.Load(src_elem, array=src,
                                       index=first_index), dest_elem)
            start_i = 1
        result: ir.Expr = ir.VarRef(dest_elem, acc)
        if name == "mean":
            result = ir.BinOp(dest_elem, op="mul", left=result,
                              right=ir.Const(dest_elem,
                                             self._one_over(inner_n,
                                                            dest_elem)))
        self.emit(self._for(jc, outer_n, [
            ir.AssignVar(acc, init),
            self._for(ic, inner_n, [ir.AssignVar(acc, update)],
                      start=start_i),
            ir.Store(array=dest, index=ir.VarRef(I32, jc), value=result),
        ]))

    # ------------------------------------------------------------------
    # User calls
    # ------------------------------------------------------------------

    def _emit_user_call(self, expr: ast.CallIndex,
                        result_names: list[str] | None,
                        target_key: str | None = None) -> list[str]:
        if target_key is None:
            target_key = self.spec.call_targets[id(expr)]
        callee_spec = self.sprog.functions[target_key]
        callee_name = _mangle(target_key)

        result_types = callee_spec.result_types
        if result_names is None:
            result_names = []
            for rt in result_types:
                result_names.append(self.temp("ret", from_mtype(rt)))
        results = list(result_names[:len(result_types)])
        # nargout < number of returns (``v = f(...)`` on a multi-return
        # function): the call still carries every output so the callee's
        # calling convention is uniform — unused outputs get throwaway
        # caller buffers and die in DCE when the callee is inlined.
        for rt in result_types[len(results):]:
            results.append(self.temp("unused", from_mtype(rt)))
        # A caller variable whose joined type differs from the callee's
        # result type (``[a, b] = f(...)`` with ``a`` single complex
        # after a later assignment) takes the result through a
        # temporary of the callee's type and a converting copy: the
        # call writes its outputs through pointers of its own types.
        targets = list(results)
        conversions: list[tuple[str, IRType, str, IRType]] = []
        for position, rt in enumerate(result_types):
            result_t = from_mtype(rt)
            name = results[position]
            caller_t = self.fn.local_type(name)
            if caller_t is not None and caller_t != result_t:
                results[position] = self.temp("ret", result_t)
                conversions.append((name, caller_t, results[position],
                                    result_t))
        result_set = set(results)

        args: list[ir.Expr | str] = []
        for arg, arg_spec_t in zip(expr.args, callee_spec.arg_types):
            arg_mtype = self.mtype_of(arg)
            if arg_mtype.is_scalar:
                value = self.lower_scalar(arg)
                args.append(self.coerce(value, scalar_from_mtype(arg_spec_t)))
                continue
            name = self._materialize(arg)
            if name in result_set:
                # x = f(x): the C calling convention passes pointers, so
                # an argument aliasing a result buffer must be snapshot
                # before the callee starts writing its outputs.
                snapshot = self.temp("alias", self.fn.local_type(name))
                self.emit(ir.CopyArray(dst=snapshot, src=name))
                name = snapshot
            args.append(name)

        self.emit(ir.Call(callee=callee_name, args=args, results=results))
        for name, caller_t, temp, result_t in conversions:
            if isinstance(caller_t, ArrayType):
                self._emit_array_copy(name, caller_t, temp, result_t)
            else:
                self.emit(ir.AssignVar(name=name, value=self.coerce(
                    ir.VarRef(result_t, temp), caller_t)))
        return targets
