"""Function inlining (module-level pass).

Inlines calls whose callee is small or called exactly once.  Besides
removing call overhead, inlining is what lets the later loop passes and
the SIMD vectorizer work *across* the original function boundaries —
e.g. a compiler-library kernel specialized for a single call site merges
into its caller and its loops join the caller's optimization scope.

Calling convention recap (see :class:`repro.ir.nodes.IRFunction`):
array parameters are read-only views, array outputs are caller buffers
written in place, scalar outputs are plain locals.  Inlining therefore
maps array params to the argument array names, array outputs to the
result array names, scalar params to fresh initialized temporaries, and
everything else to fresh names.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.types import ArrayType


class FunctionInlining:
    """Module-level inliner; run before the scalar/SIMD pipelines."""

    name = "inline"

    def __init__(self, max_statements: int = 12):
        self.max_statements = max_statements
        self._counter = 0

    # ------------------------------------------------------------------

    def run_module(self, module: ir.IRModule) -> bool:
        changed = False
        # Iterate: inlining can expose further single-site callees.
        for _ in range(4):
            site_counts = self._call_site_counts(module)
            round_changed = False
            for func in module.functions:
                round_changed |= self._inline_in(func, module, site_counts)
            if not round_changed:
                break
            changed = True
        if changed:
            self._drop_dead_functions(module)
        return changed

    def _call_site_counts(self, module: ir.IRModule) -> dict[str, int]:
        counts: dict[str, int] = {}
        for func in module.functions:
            for stmt in ir.walk_statements(func.body):
                if isinstance(stmt, ir.Call):
                    counts[stmt.callee] = counts.get(stmt.callee, 0) + 1
        return counts

    def _statement_count(self, func: ir.IRFunction) -> int:
        return sum(1 for _ in ir.walk_statements(func.body))

    def _inlinable(self, callee: ir.IRFunction, sites: int) -> bool:
        if any(isinstance(s, ir.Return)
               for s in ir.walk_statements(callee.body)):
            return False  # early returns would need label plumbing
        return sites == 1 or \
            self._statement_count(callee) <= self.max_statements

    # ------------------------------------------------------------------

    def _inline_in(self, caller: ir.IRFunction, module: ir.IRModule,
                   site_counts: dict[str, int]) -> bool:
        changed = False

        def process(body: list[ir.Stmt]) -> None:
            nonlocal changed
            index = 0
            while index < len(body):
                stmt = body[index]
                for sub in stmt.substatements():
                    process(sub)
                if isinstance(stmt, ir.Call):
                    callee = module.function(stmt.callee)
                    if callee is not None and callee is not caller and \
                            self._inlinable(callee,
                                            site_counts.get(stmt.callee, 0)):
                        expansion = self._expand(stmt, callee, caller)
                        body[index:index + 1] = expansion
                        index += len(expansion)
                        changed = True
                        continue
                index += 1

        process(caller.body)
        return changed

    def _expand(self, call: ir.Call, callee: ir.IRFunction,
                caller: ir.IRFunction) -> list[ir.Stmt]:
        self._counter += 1
        prefix = f"inl{self._counter}_"
        rename: dict[str, str] = {}
        prologue: list[ir.Stmt] = []

        for param, argument in zip(callee.params, call.args):
            if isinstance(param.type, ArrayType):
                rename[param.name] = argument  # argument is an array name
            else:
                temp = prefix + param.name
                caller.declare(temp, param.type)
                rename[param.name] = temp
                prologue.append(ir.AssignVar(temp,
                                             ir.clone(argument)))

        for out, result in zip(callee.outputs, call.results):
            rename[out.name] = result

        for name, ir_type in callee.locals.items():
            if name in rename:
                continue  # scalar outputs live in locals too
            fresh = prefix + name
            rename[name] = fresh
            caller.declare(fresh, ir_type)

        body = ir.clone(callee.body)
        _rename_tree(body, rename)
        return prologue + body

    def _drop_dead_functions(self, module: ir.IRModule) -> None:
        live = self._call_site_counts(module)
        module.functions = [
            f for f in module.functions
            if f.name == module.entry or live.get(f.name, 0) > 0
        ]


def _rename_tree(body: list[ir.Stmt], rename: dict[str, str]) -> None:
    """Rewrite every variable and array name in a statement tree."""

    def map_name(name: str) -> str:
        return rename.get(name, name)

    def fix_expr(expr: ir.Expr) -> None:
        for node in ir.walk_expr(expr):
            if isinstance(node, ir.VarRef):
                node.name = map_name(node.name)
            elif isinstance(node, (ir.Load, ir.VecLoad)):
                node.array = map_name(node.array)

    for stmt in body:
        for expr in ir.statement_exprs(stmt):
            fix_expr(expr)
        if isinstance(stmt, ir.AssignVar):
            stmt.name = map_name(stmt.name)
        elif isinstance(stmt, (ir.Store, ir.VecStore)):
            stmt.array = map_name(stmt.array)
        elif isinstance(stmt, ir.ForRange):
            stmt.var = map_name(stmt.var)
        elif isinstance(stmt, ir.CopyArray):
            stmt.dst = map_name(stmt.dst)
            stmt.src = map_name(stmt.src)
        elif isinstance(stmt, ir.Call):
            stmt.args = [map_name(a) if isinstance(a, str) else a
                         for a in stmt.args]
            stmt.results = [map_name(r) for r in stmt.results]
        for sub in stmt.substatements():
            _rename_tree(sub, rename)
