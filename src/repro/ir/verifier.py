"""IR well-formedness checks.

Run after lowering and after every transformation in tests: catches
compiler bugs (dangling variable references, type mismatches, unknown
arrays, malformed loops) close to where they were introduced instead of
as mysterious simulation or C-compilation failures.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.types import ArrayType, I32, ScalarType, VectorType


class VerificationError(AssertionError):
    """The IR violates a structural invariant."""


def verify_module(module: ir.IRModule) -> None:
    """Raise :class:`VerificationError` on the first problem found."""
    names = [f.name for f in module.functions]
    if len(set(names)) != len(names):
        raise VerificationError("duplicate function names in module")
    if module.function(module.entry) is None:
        raise VerificationError(f"entry {module.entry!r} not in module")
    for func in module.functions:
        _FunctionVerifier(func, module).run()


def verify_function(func: ir.IRFunction,
                    module: ir.IRModule | None = None) -> None:
    _FunctionVerifier(func, module).run()


class _FunctionVerifier:
    def __init__(self, func: ir.IRFunction, module: ir.IRModule | None):
        self.func = func
        self.module = module
        self.scalars: dict[str, ScalarType | VectorType] = {}
        self.arrays: dict[str, ArrayType] = {}

    def fail(self, message: str) -> None:
        raise VerificationError(f"{self.func.name}: {message}")

    def run(self) -> None:
        for param in self.func.params:
            self._declare(param.name, param.type)
        for out in self.func.outputs:
            # A scalar that is both input and output shares one binding.
            existing = self.scalars.get(out.name, self.arrays.get(out.name))
            if existing is not None:
                if existing != out.type:
                    self.fail(f"output {out.name!r} conflicts with a "
                              "parameter of a different type")
            else:
                self._declare(out.name, out.type)
        for name, ir_type in self.func.locals.items():
            self._declare(name, ir_type, allow_dup=True)
        self._check_body(self.func.body, loop_depth=0)

    def _declare(self, name: str, ir_type, allow_dup: bool = False) -> None:
        if not allow_dup and (name in self.scalars or name in self.arrays):
            self.fail(f"duplicate declaration of {name!r}")
        if isinstance(ir_type, ArrayType):
            self.arrays[name] = ir_type
        else:
            self.scalars[name] = ir_type

    # -- statements ---------------------------------------------------

    def _check_body(self, body: list[ir.Stmt], loop_depth: int) -> None:
        for stmt in body:
            self._check_stmt(stmt, loop_depth)

    def _check_stmt(self, stmt: ir.Stmt, loop_depth: int) -> None:
        if isinstance(stmt, ir.AssignVar):
            declared = self.scalars.get(stmt.name)
            if declared is None:
                self.fail(f"assignment to undeclared variable {stmt.name!r}")
            value_type = self._check_expr(stmt.value)
            if declared != value_type:
                self.fail(f"type mismatch assigning {stmt.name!r}: "
                          f"{declared} = {value_type}")
        elif isinstance(stmt, ir.Store):
            array = self.arrays.get(stmt.array)
            if array is None:
                self.fail(f"store to unknown array {stmt.array!r}")
            index_type = self._check_expr(stmt.index)
            if index_type != I32:
                self.fail("store index must be i32")
            value_type = self._check_expr(stmt.value)
            if value_type != ScalarType(array.elem.kind):
                self.fail(f"store element type mismatch into "
                          f"{stmt.array!r}: {value_type}")
        elif isinstance(stmt, ir.VecStore):
            array = self.arrays.get(stmt.array)
            if array is None:
                self.fail(f"vector store to unknown array {stmt.array!r}")
            value_type = self._check_expr(stmt.value)
            if not isinstance(value_type, VectorType):
                self.fail("vector store of a non-vector value")
            if value_type.elem != ScalarType(array.elem.kind):
                self.fail("vector store element kind mismatch")
            if self._check_expr(stmt.base) != I32:
                self.fail("vector store base must be i32")
        elif isinstance(stmt, ir.ForRange):
            if stmt.step == 0:
                self.fail("ForRange step must be non-zero")
            var_type = self.scalars.get(stmt.var)
            if var_type != I32:
                self.fail(f"loop variable {stmt.var!r} must be a declared "
                          "i32 scalar")
            if self._check_expr(stmt.start) != I32:
                self.fail("loop start must be i32")
            if self._check_expr(stmt.stop) != I32:
                self.fail("loop stop must be i32")
            self._check_body(stmt.body, loop_depth + 1)
        elif isinstance(stmt, ir.While):
            self._check_expr(stmt.condition)
            self._check_body(stmt.body, loop_depth + 1)
        elif isinstance(stmt, ir.If):
            self._check_expr(stmt.condition)
            self._check_body(stmt.then_body, loop_depth)
            self._check_body(stmt.else_body, loop_depth)
        elif isinstance(stmt, (ir.Break, ir.Continue)):
            if loop_depth == 0:
                self.fail(f"{type(stmt).__name__} outside of a loop")
        elif isinstance(stmt, ir.Return):
            pass
        elif isinstance(stmt, ir.Call):
            self._check_call(stmt)
        elif isinstance(stmt, ir.Emit):
            for argument in stmt.args:
                self._check_expr(argument)
        elif isinstance(stmt, ir.CopyArray):
            src = self.arrays.get(stmt.src)
            dst = self.arrays.get(stmt.dst)
            if src is None or dst is None:
                self.fail(f"copy between unknown arrays "
                          f"{stmt.src!r} -> {stmt.dst!r}")
            if src.numel != dst.numel:
                self.fail("array copy element-count mismatch")
        else:
            self.fail(f"unknown statement {type(stmt).__name__}")

    def _check_call(self, stmt: ir.Call) -> None:
        if self.module is None:
            return
        callee = self.module.function(stmt.callee)
        if callee is None:
            self.fail(f"call to unknown function {stmt.callee!r}")
        if len(stmt.args) != len(callee.params):
            self.fail(f"call to {stmt.callee!r}: argument count mismatch")
        for arg, param in zip(stmt.args, callee.params):
            if isinstance(param.type, ArrayType):
                if not isinstance(arg, str) or arg not in self.arrays:
                    self.fail(f"call to {stmt.callee!r}: expected an array "
                              f"name for parameter {param.name!r}")
            else:
                if isinstance(arg, str):
                    self.fail(f"call to {stmt.callee!r}: scalar parameter "
                              f"{param.name!r} bound to an array")
                self._check_expr(arg)
        if len(stmt.results) != len(callee.outputs):
            self.fail(f"call to {stmt.callee!r}: result count mismatch")
        for name, out in zip(stmt.results, callee.outputs):
            if isinstance(out.type, ArrayType):
                if name not in self.arrays:
                    self.fail(f"call result array {name!r} undeclared")
            elif name not in self.scalars:
                self.fail(f"call result scalar {name!r} undeclared")

    # -- expressions ----------------------------------------------------

    def _check_expr(self, expr: ir.Expr):
        if expr is None:
            self.fail("missing expression operand")
        if isinstance(expr, ir.Const):
            return expr.type
        if isinstance(expr, ir.VarRef):
            declared = self.scalars.get(expr.name)
            if declared is None:
                self.fail(f"reference to undeclared variable {expr.name!r}")
            if declared != expr.type:
                self.fail(f"stale type on reference to {expr.name!r}: "
                          f"{expr.type} (declared {declared})")
            return expr.type
        if isinstance(expr, ir.Load):
            array = self.arrays.get(expr.array)
            if array is None:
                self.fail(f"load from unknown array {expr.array!r}")
            if self._check_expr(expr.index) != I32:
                self.fail(f"load index into {expr.array!r} must be i32")
            if expr.type != ScalarType(array.elem.kind):
                self.fail(f"load element type mismatch from {expr.array!r}")
            return expr.type
        if isinstance(expr, ir.BinOp):
            self._check_expr(expr.left)
            self._check_expr(expr.right)
            return expr.type
        if isinstance(expr, (ir.UnOp, ir.Cast)):
            self._check_expr(expr.operand)
            return expr.type
        if isinstance(expr, ir.MathCall):
            for argument in expr.args:
                self._check_expr(argument)
            return expr.type
        if isinstance(expr, ir.MakeComplex):
            self._check_expr(expr.real)
            self._check_expr(expr.imag)
            if not expr.type.is_complex:
                self.fail("MakeComplex with non-complex result type")
            return expr.type
        if isinstance(expr, ir.VecLoad):
            array = self.arrays.get(expr.array)
            if array is None:
                self.fail(f"vector load from unknown array {expr.array!r}")
            if not isinstance(expr.type, VectorType):
                self.fail("vector load with non-vector type")
            if expr.type.elem != ScalarType(array.elem.kind):
                self.fail("vector load element kind mismatch")
            if self._check_expr(expr.base) != I32:
                self.fail("vector load base must be i32")
            return expr.type
        if isinstance(expr, ir.IntrinsicCall):
            if expr.instruction is None:
                self.fail("intrinsic call without an instruction")
            for argument in expr.args:
                self._check_expr(argument)
            return expr.type
        self.fail(f"unknown expression {type(expr).__name__}")
