"""Fusion of adjacent conformable loops.

Two back-to-back ``ForRange`` loops with identical constant bounds and
step are merged when every array they both touch is accessed only at the
loop index itself (pure element-wise traffic) and no scalar flows from
the first body into the second.  This collapses chains of element-wise
statements (``a = x + y; b = a .* w``) into single loops, which both
saves loop overhead on the scalar datapath and gives the vectorizer one
bigger body to convert.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.affine import Affine, affine
from repro.ir.passes.rewrite import (
    assigned_vars,
    loaded_arrays,
    rewrite_tree,
    stored_arrays,
    used_vars,
)
from repro.observe import remarks as obs_remarks


class LoopFusion:
    name = "loop-fusion"

    def run(self, func: ir.IRFunction) -> bool:
        self._func = func
        return self._walk(func.body)

    def _walk(self, body: list[ir.Stmt]) -> bool:
        changed = False
        index = 0
        while index < len(body):
            stmt = body[index]
            for sub in stmt.substatements():
                changed |= self._walk(sub)
            if isinstance(stmt, ir.ForRange) and index + 1 < len(body):
                nxt = body[index + 1]
                if isinstance(nxt, ir.ForRange) and self._fusable(stmt, nxt):
                    obs_remarks.passed(
                        self.name,
                        "fused adjacent conformable loop (from line "
                        f"{nxt.line}) into this one",
                        function=self._func.name, line=stmt.line,
                        fused_line=nxt.line)
                    self._fuse(stmt, nxt)
                    del body[index + 1]
                    changed = True
                    continue  # try to fuse further successors too
            index += 1
        return changed

    def _fusable(self, a: ir.ForRange, b: ir.ForRange) -> bool:
        if a.step != b.step or a.step != 1:
            return False
        if not (isinstance(a.start, ir.Const) and isinstance(b.start, ir.Const)
                and isinstance(a.stop, ir.Const) and isinstance(b.stop, ir.Const)):
            return False
        if a.start.value != b.start.value or a.stop.value != b.stop.value:
            return False
        if self._has_control_flow(a.body) or self._has_control_flow(b.body):
            return False
        # No scalar may flow between the two bodies.
        a_scalars = assigned_vars(a.body)
        if a_scalars & (used_vars(b.body) | assigned_vars(b.body)):
            return False
        if assigned_vars(b.body) & used_vars(a.body):
            return False
        # Arrays touched by both loops must be accessed only at the
        # loop index itself.
        a_arrays = stored_arrays(a.body) | loaded_arrays(a.body)
        b_arrays = stored_arrays(b.body) | loaded_arrays(b.body)
        shared = a_arrays & b_arrays
        if shared:
            if not self._index_only(a.body, shared, a.var):
                return False
            if not self._index_only(b.body, shared, b.var):
                return False
        return True

    def _has_control_flow(self, body: list[ir.Stmt]) -> bool:
        return any(isinstance(stmt, (ir.ForRange, ir.While, ir.If, ir.Break,
                                     ir.Continue, ir.Return, ir.Call,
                                     ir.Emit, ir.CopyArray))
                   for stmt in ir.walk_statements(body))

    def _index_only(self, body: list[ir.Stmt], arrays: set[str],
                    var: str) -> bool:
        at_var = Affine({var: 1})
        for stmt in ir.walk_statements(body):
            if isinstance(stmt, (ir.Store, ir.VecStore)) and \
                    stmt.array in arrays:
                index = stmt.index if isinstance(stmt, ir.Store) else stmt.base
                if affine(index, (var,)) != at_var:
                    return False
            for expr in ir.statement_exprs(stmt):
                for node in ir.walk_expr(expr):
                    if isinstance(node, (ir.Load, ir.VecLoad)) and \
                            node.array in arrays:
                        index = node.index if isinstance(node, ir.Load) \
                            else node.base
                        if affine(index, (var,)) != at_var:
                            return False
        return True

    def _fuse(self, a: ir.ForRange, b: ir.ForRange) -> None:
        if b.var != a.var:
            def rename(expr: ir.Expr) -> ir.Expr:
                if isinstance(expr, ir.VarRef) and expr.name == b.var:
                    return ir.VarRef(expr.type, a.var)
                return expr

            rewrite_tree(b.body, rename)
        a.body.extend(b.body)
