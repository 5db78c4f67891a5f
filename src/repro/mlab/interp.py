"""Golden MATLAB interpreter.

Executes the frontend AST directly with numpy semantics — completely
independent of the compiler's inference/IR/codegen pipeline — and serves
as the reference model for differential testing: for every supported
program, compiled code (simulated or gcc-executed) must agree with this
interpreter.

Supported beyond the compiler subset (the golden model is deliberately
more permissive): logical indexing, array growth on indexed assignment,
anonymous functions, matrix iteration in ``for``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InterpreterError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.mlab import builtins_rt
from repro.mlab.values import (
    display,
    index_vector,
    is_scalar,
    scalar_of,
    to_value,
    truthy,
)
from repro.semantics.library import LIBRARY_SOURCES


class _BreakLoop(Exception):
    pass


class _ContinueLoop(Exception):
    pass


class _ReturnFunction(Exception):
    pass


@dataclass
class _AnonValue:
    """A first-class anonymous function value."""

    params: list[str]
    body: ast.Expr
    captured: dict[str, object] = field(default_factory=dict)


@dataclass
class _HandleValue:
    name: str


class MatlabInterpreter:
    """Interprets a parsed program (or raw source text)."""

    #: User-call nesting bound.  Deep enough for any legitimate helper
    #: chain in the supported subset, shallow enough that runaway
    #: recursion surfaces as a sourced diagnostic instead of a Python
    #: RecursionError.
    MAX_CALL_DEPTH = 64

    def __init__(self, program: "ast.Program | str"):
        self._source_text = program if isinstance(program, str) else None
        if isinstance(program, str):
            program = parse(program)
        self.program = program
        self.functions: dict[str, ast.Function] = {
            f.name: f for f in program.functions}
        self.stdout = io.StringIO()
        self._call_depth = 0
        # id -> (original kept alive, rewritten clone)
        self._end_cache: dict[int, tuple[ast.Expr, ast.Expr]] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def call(self, name: str, args: list[object],
             nargout: int = 1) -> list[object]:
        """Call a user (or library) function with MATLAB values."""
        func = self.functions.get(name)
        if func is None:
            library_src = LIBRARY_SOURCES.get(name)
            if library_src is None:
                raise InterpreterError(f"unknown function {name!r}")
            func = parse(library_src).functions[0]
        return self._call_function(func, [to_value(a) for a in args],
                                   nargout)

    def run_script(self) -> dict[str, object]:
        """Execute a script program; returns the final workspace."""
        env: dict[str, object] = {}
        try:
            self._exec_body(self.program.script, env)
        except _ReturnFunction:
            pass
        return env

    # ------------------------------------------------------------------
    # Function machinery
    # ------------------------------------------------------------------

    def _call_function(self, func: ast.Function, args: list[object],
                       nargout: int) -> list[object]:
        if len(args) > len(func.params):
            raise InterpreterError(
                f"{func.name}: too many arguments ({len(args)} for "
                f"{len(func.params)})")
        if self._call_depth >= self.MAX_CALL_DEPTH:
            where = ""
            if self._source_text is not None:
                line = self._source_text.count("\n", 0, func.span.start) + 1
                where = f"{func.span.filename}:{line}: "
            raise InterpreterError(
                f"{where}call depth limit ({self.MAX_CALL_DEPTH}) exceeded "
                f"in {func.name!r} — recursive user functions are not "
                "supported")
        env: dict[str, object] = {}
        for param, value in zip(func.params, args):
            if param != "~":
                env[param] = value
        self._call_depth += 1
        try:
            self._exec_body(func.body, env)
        except _ReturnFunction:
            pass
        finally:
            self._call_depth -= 1
        results: list[object] = []
        for out in func.returns[:max(nargout, 1)]:
            if out not in env:
                raise InterpreterError(
                    f"{func.name}: output {out!r} never assigned")
            results.append(env[out])
        return results

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_body(self, body: list[ast.Stmt], env: dict) -> None:
        for stmt in body:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.Stmt, env: dict) -> None:
        if isinstance(stmt, ast.ExprStmt):
            value = self._eval(stmt.expr, env)
            if not stmt.suppressed and value is not None:
                self.stdout.write(display("ans", value))
            if value is not None:
                env["ans"] = value
        elif isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            self._assign(stmt.target, value, env)
            if not stmt.suppressed and isinstance(stmt.target,
                                                  ast.Identifier):
                self.stdout.write(display(stmt.target.name,
                                          env[stmt.target.name]))
        elif isinstance(stmt, ast.MultiAssign):
            values = self._eval_multi(stmt.value, env, len(stmt.targets))
            if len(values) < len(stmt.targets):
                raise InterpreterError(
                    "not enough output values for multiple assignment")
            for target, value in zip(stmt.targets, values):
                if isinstance(target, ast.Identifier) and target.name == "~":
                    continue
                self._assign(target, value, env)
        elif isinstance(stmt, ast.If):
            for cond, body in stmt.branches:
                if truthy(self._eval(cond, env)):
                    self._exec_body(body, env)
                    return
            self._exec_body(stmt.else_body, env)
        elif isinstance(stmt, ast.While):
            while truthy(self._eval(stmt.condition, env)):
                try:
                    self._exec_body(stmt.body, env)
                except _BreakLoop:
                    break
                except _ContinueLoop:
                    continue
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, env)
        elif isinstance(stmt, ast.Switch):
            self._exec_switch(stmt, env)
        elif isinstance(stmt, ast.Break):
            raise _BreakLoop()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueLoop()
        elif isinstance(stmt, ast.Return):
            raise _ReturnFunction()
        else:
            raise InterpreterError(
                f"cannot interpret {type(stmt).__name__}")

    def _exec_for(self, stmt: ast.For, env: dict) -> None:
        iterable = self._eval(stmt.iterable, env)
        if isinstance(iterable, str):
            raise InterpreterError("cannot iterate over a string")
        for j in range(iterable.shape[1]):
            # MATLAB binds each column *by value*: mutating the loop
            # variable must never write through into the iterable.
            env[stmt.var] = iterable[:, j:j + 1].copy()
            try:
                self._exec_body(stmt.body, env)
            except _BreakLoop:
                break
            except _ContinueLoop:
                continue

    def _exec_switch(self, stmt: ast.Switch, env: dict) -> None:
        subject = self._eval(stmt.subject, env)
        for match, body in stmt.cases:
            value = self._eval(match, env)
            if self._switch_matches(subject, value):
                self._exec_body(body, env)
                return
        self._exec_body(stmt.otherwise, env)

    def _switch_matches(self, subject, value) -> bool:
        if isinstance(subject, str) or isinstance(value, str):
            return isinstance(subject, str) and isinstance(value, str) and \
                subject == value
        if subject.size != 1 or value.size != 1:
            return False
        return scalar_of(subject) == scalar_of(value)

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------

    def _assign(self, target: ast.Expr, value, env: dict) -> None:
        if isinstance(target, ast.Identifier):
            env[target.name] = value
            return
        if not isinstance(target, ast.CallIndex) or not isinstance(
                target.target, ast.Identifier):
            raise InterpreterError("invalid assignment target")
        name = target.target.name
        current = env.get(name)
        if current is None:
            current = np.zeros((0, 0))
        if isinstance(current, str):
            raise InterpreterError("cannot index-assign into a string")
        env[name] = self._indexed_store(current, target, value, env)

    def _indexed_store(self, array: np.ndarray, target: ast.CallIndex,
                       value, env: dict) -> np.ndarray:
        value = to_value(value)
        if np.iscomplexobj(value) and not np.iscomplexobj(array):
            array = array.astype(np.complex128)
        else:
            # MATLAB value semantics: `q = a; q(i,j) = x` must never write
            # through into `a`.  Plain assignment aliases, so copy before
            # the in-place store below.
            array = array.copy()
        args = target.args
        if len(args) == 1:
            return self._linear_store(array, args[0], value, env)
        if len(args) != 2:
            raise InterpreterError("at most two subscripts are supported")
        rows = self._subscript(args[0], array, env, dim=0)
        cols = self._subscript(args[1], array, env, dim=1)
        need_rows = int(rows.max()) + 1 if rows.size else 0
        need_cols = int(cols.max()) + 1 if cols.size else 0
        if need_rows > array.shape[0] or need_cols > array.shape[1]:
            grown = np.zeros((max(need_rows, array.shape[0]),
                              max(need_cols, array.shape[1])),
                             dtype=array.dtype)
            grown[:array.shape[0], :array.shape[1]] = array
            array = grown
        if value.size == 1:
            array[np.ix_(rows, cols)] = value.reshape(-1)[0]
        else:
            array[np.ix_(rows, cols)] = value.reshape(
                (rows.size, cols.size), order="F")
        return array

    def _linear_store(self, array: np.ndarray, subscript: ast.Expr,
                      value, env: dict) -> np.ndarray:
        if isinstance(subscript, ast.ColonAll):
            flat = array.reshape(-1, order="F").copy()
            flat[:] = value.reshape(-1, order="F")
            return flat.reshape(array.shape, order="F")
        indices = index_vector(
            self._eval_index_arg(subscript, array, env, dim=None), 1 << 60)
        if array.size == 0 and indices.size:
            # Keep the dtype chosen by _indexed_store (complex promotion
            # for a complex stored value) when growing from empty.
            array = np.zeros((1, int(indices.max()) + 1), dtype=array.dtype)
        if indices.size and indices.max() >= array.size:
            if array.shape[0] == 1:
                grown = np.zeros((1, int(indices.max()) + 1),
                                 dtype=array.dtype)
                grown[0, :array.shape[1]] = array[0]
                array = grown
            elif array.shape[1] == 1:
                grown = np.zeros((int(indices.max()) + 1, 1),
                                 dtype=array.dtype)
                grown[:array.shape[0], 0] = array[:, 0]
                array = grown
            else:
                raise InterpreterError(
                    "linear indexed assignment cannot grow a matrix")
        flat = array.reshape(-1, order="F").copy()
        if value.size == 1:
            flat[indices] = value.reshape(-1)[0]
        else:
            flat[indices] = value.reshape(-1, order="F")
        return flat.reshape(array.shape, order="F")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, expr: ast.Expr, env: dict):
        result = self._eval_multi_expr(expr, env, 1)
        return result[0] if result else None

    def _eval_multi(self, expr: ast.Expr, env: dict,
                    nargout: int) -> list[object]:
        return self._eval_multi_expr(expr, env, nargout)

    def _eval_multi_expr(self, expr: ast.Expr, env: dict,
                         nargout: int) -> list[object]:
        if isinstance(expr, ast.NumberLit):
            return [to_value(expr.value)]
        if isinstance(expr, ast.ImagLit):
            return [to_value(complex(0.0, expr.value))]
        if isinstance(expr, ast.StringLit):
            return [expr.value]
        if isinstance(expr, ast.Identifier):
            return [self._eval_identifier(expr, env)]
        if isinstance(expr, ast.UnaryOp):
            return [self._eval_unary(expr, env)]
        if isinstance(expr, ast.BinaryOp):
            return [self._eval_binary(expr, env)]
        if isinstance(expr, ast.Transpose):
            operand = self._eval(expr.operand, env)
            if isinstance(operand, str):
                raise InterpreterError("cannot transpose a string")
            if expr.conjugate:
                return [operand.conj().T.copy()]
            return [operand.T.copy()]
        if isinstance(expr, ast.Range):
            return [self._eval_range(expr, env)]
        if isinstance(expr, ast.MatrixLit):
            return [self._eval_matrix(expr, env)]
        if isinstance(expr, ast.CallIndex):
            return self._eval_call_index(expr, env, nargout)
        if isinstance(expr, ast.AnonFunc):
            captured = {k: v for k, v in env.items()}
            return [_AnonValue(expr.params, expr.body, captured)]
        if isinstance(expr, ast.FuncHandle):
            return [_HandleValue(expr.name)]
        if isinstance(expr, ast.EndMarker):
            raise InterpreterError("'end' outside of an index expression")
        if isinstance(expr, ast.ColonAll):
            raise InterpreterError("':' outside of an index expression")
        raise InterpreterError(f"cannot evaluate {type(expr).__name__}")

    def _eval_identifier(self, expr: ast.Identifier, env: dict):
        if expr.name in env:
            return env[expr.name]
        constant = builtins_rt.constant(expr.name)
        if constant is not None:
            return constant
        if expr.name in self.functions or \
                expr.name in LIBRARY_SOURCES or \
                builtins_rt.is_builtin(expr.name):
            values = self._dispatch_call(expr.name, [], env, 1,
                                         span_node=expr)
            return values[0] if values else None
        raise InterpreterError(
            f"undefined variable or function {expr.name!r}")

    def _eval_unary(self, expr: ast.UnaryOp, env: dict):
        operand = self._eval(expr.operand, env)
        if isinstance(operand, str):
            operand = builtins_rt.char_to_double(operand)
        if expr.op == "-":
            return -operand
        if expr.op == "+":
            return +operand
        return (operand == 0)

    def _eval_binary(self, expr: ast.BinaryOp, env: dict):
        op = expr.op
        if op in ("&&", "||"):
            left = truthy(self._eval(expr.left, env))
            if op == "&&" and not left:
                return to_value(False)
            if op == "||" and left:
                return to_value(True)
            return to_value(truthy(self._eval(expr.right, env)))
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if isinstance(left, str):
            left = builtins_rt.char_to_double(left)
        if isinstance(right, str):
            right = builtins_rt.char_to_double(right)
        return builtins_rt.binary_op(op, left, right)

    def _eval_range(self, expr: ast.Range, env: dict) -> np.ndarray:
        start = scalar_of(self._eval(expr.start, env))
        stop = scalar_of(self._eval(expr.stop, env))
        step = scalar_of(self._eval(expr.step, env)) \
            if expr.step is not None else 1.0
        return builtins_rt.colon(start, step, stop)

    def _eval_matrix(self, expr: ast.MatrixLit, env: dict) -> np.ndarray:
        if not expr.rows:
            return np.zeros((0, 0))
        row_arrays = []
        for row in expr.rows:
            pieces = [to_value(self._eval(e, env)) for e in row]
            row_arrays.append(np.hstack(pieces) if len(pieces) > 1
                              else pieces[0])
        return np.vstack(row_arrays) if len(row_arrays) > 1 else row_arrays[0]

    # ------------------------------------------------------------------
    # Calls and indexing
    # ------------------------------------------------------------------

    def _eval_call_index(self, expr: ast.CallIndex, env: dict,
                         nargout: int) -> list[object]:
        if not isinstance(expr.target, ast.Identifier):
            base = self._eval(expr.target, env)
            if isinstance(base, (_AnonValue, _HandleValue)):
                args = [self._eval(a, env) for a in expr.args]
                return self._call_callable(base, args, env, nargout)
            raise InterpreterError(
                "indexing the result of an expression is not supported")
        name = expr.target.name
        if name in env:
            value = env[name]
            if isinstance(value, (_AnonValue, _HandleValue)):
                args = [self._eval(a, env) for a in expr.args]
                return self._call_callable(value, args, env, nargout)
            if isinstance(value, str):
                return [self._index_string(value, expr, env)]
            return [self._index_array(value, expr, env)]
        args = [self._eval(a, env) for a in expr.args
                if not isinstance(a, ast.ColonAll)]
        if any(isinstance(a, ast.ColonAll) for a in expr.args):
            raise InterpreterError(f"':' argument in a call to {name!r}")
        return self._dispatch_call(name, args, env, nargout, span_node=expr)

    def _call_callable(self, value, args: list[object], env: dict,
                       nargout: int) -> list[object]:
        if isinstance(value, _HandleValue):
            return self._dispatch_call(value.name, args, env, nargout,
                                       span_node=None)
        inner_env = dict(value.captured)
        if len(args) != len(value.params):
            raise InterpreterError(
                f"anonymous function expects {len(value.params)} "
                f"argument(s), got {len(args)}")
        for param, arg in zip(value.params, args):
            inner_env[param] = to_value(arg)
        return [self._eval(value.body, inner_env)]

    def _dispatch_call(self, name: str, args: list[object], env: dict,
                       nargout: int, span_node) -> list[object]:
        func = self.functions.get(name)
        if func is not None:
            return self._call_function(func, [to_value(a) for a in args],
                                       nargout)
        if builtins_rt.is_builtin(name):
            return builtins_rt.call(name, args, nargout, self.stdout)
        if name in LIBRARY_SOURCES:
            library_func = parse(LIBRARY_SOURCES[name]).functions[0]
            return self._call_function(
                library_func, [to_value(a) for a in args], nargout)
        raise InterpreterError(f"undefined function {name!r}")

    def _index_string(self, value: str, expr: ast.CallIndex,
                      env: dict) -> str:
        if len(expr.args) != 1:
            raise InterpreterError("strings support linear indexing only")
        as_array = builtins_rt.char_to_double(value)
        indices = index_vector(
            self._eval_index_arg(expr.args[0], as_array, env, dim=None),
            len(value))
        return "".join(value[i] for i in indices)

    def _index_array(self, array: np.ndarray, expr: ast.CallIndex,
                     env: dict) -> np.ndarray:
        args = expr.args
        if len(args) == 0:
            return array
        if len(args) == 1:
            arg = args[0]
            if isinstance(arg, ast.ColonAll):
                return array.reshape(-1, 1, order="F").copy()
            subscript = self._eval_index_arg(arg, array, env, dim=None)
            indices = index_vector(subscript, array.size)
            if indices.size and indices.max() >= array.size:
                raise InterpreterError("index out of bounds")
            flat = array.reshape(-1, order="F")
            taken = flat[indices]
            if isinstance(subscript, np.ndarray) and \
                    subscript.dtype != np.bool_ and not is_scalar(subscript):
                return taken.reshape(subscript.shape, order="F")
            if subscript.dtype == np.bool_:
                return taken.reshape(-1, 1) if array.shape[1] == 1 else \
                    taken.reshape(1, -1)
            return np.atleast_2d(taken)
        if len(args) != 2:
            raise InterpreterError("at most two subscripts are supported")
        rows = self._subscript(args[0], array, env, dim=0)
        cols = self._subscript(args[1], array, env, dim=1)
        if rows.size and rows.max() >= array.shape[0]:
            raise InterpreterError("row index out of bounds")
        if cols.size and cols.max() >= array.shape[1]:
            raise InterpreterError("column index out of bounds")
        return array[np.ix_(rows, cols)].copy()

    def _subscript(self, arg: ast.Expr, array: np.ndarray, env: dict,
                   dim: int) -> np.ndarray:
        if isinstance(arg, ast.ColonAll):
            return np.arange(array.shape[dim])
        value = self._eval_index_arg(arg, array, env, dim)
        return index_vector(value, array.shape[dim])

    def _eval_index_arg(self, arg: ast.Expr, array: np.ndarray, env: dict,
                        dim: int | None):
        """Evaluate a subscript with ``end`` bound to the right extent."""
        extent = array.size if dim is None else array.shape[dim]
        return self._eval_with_end(arg, env, extent)

    def _eval_with_end(self, arg: ast.Expr, env: dict, extent: int):
        marker = "__end__"
        saved = env.get(marker)
        env[marker] = to_value(float(extent))
        try:
            return self._eval(self._replace_end(arg), env)
        finally:
            if saved is None:
                env.pop(marker, None)
            else:
                env[marker] = saved

    def _replace_end(self, arg: ast.Expr) -> ast.Expr:
        """Rewrite EndMarker nodes to reads of the __end__ pseudo-var."""
        cached = self._end_cache.get(id(arg))
        if cached is not None:
            return cached[1]
        import copy

        def rewrite(node: ast.Expr) -> ast.Expr:
            if isinstance(node, ast.EndMarker):
                return ast.Identifier(span=node.span, name="__end__")
            for name in list(getattr(node, "__dataclass_fields__", {})):
                value = getattr(node, name)
                if isinstance(value, ast.Expr):
                    setattr(node, name, rewrite(value))
                elif isinstance(value, list):
                    setattr(node, name,
                            [rewrite(v) if isinstance(v, ast.Expr) else v
                             for v in value])
            return node

        clone = copy.deepcopy(arg)
        result = rewrite(clone)
        self._end_cache[id(arg)] = (arg, result)
        return result
