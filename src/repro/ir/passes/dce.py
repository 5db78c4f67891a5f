"""Dead-code elimination.

Removes assignments to scalar variables that are never read (and are not
function outputs), loops and copies producing arrays that are never read
(and are not outputs), and unused local declarations.  Iterates naturally
with the pass manager: removing one dead assignment can make another's
operands dead in the next round.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.passes.rewrite import read_outside_loop


class DeadCodeElimination:
    name = "dce"

    def run(self, func: ir.IRFunction) -> bool:
        keep = {p.name for p in func.outputs}
        keep.update(p.name for p in func.params)

        used, loaded = _reads(func.body)
        live_scalars = used | keep
        live_arrays = loaded | keep

        self._func_body = func.body
        changed = self._sweep(func.body, live_scalars, live_arrays)

        # Drop locals that no statement mentions any more.  The sweep
        # only removes statements, so every name still read is in a
        # live set already: only the written names need a look.
        written = _writes(func.body)
        for name in list(func.locals):
            if name in keep:
                continue
            if name not in written and name not in live_scalars \
                    and name not in live_arrays:
                del func.locals[name]
                changed = True
        return changed

    def _sweep(self, body: list[ir.Stmt], live_scalars: set[str],
               live_arrays: set[str]) -> bool:
        changed = False
        index = 0
        while index < len(body):
            stmt = body[index]
            remove = False
            if isinstance(stmt, ir.AssignVar):
                if stmt.name not in live_scalars and \
                        self._is_pure(stmt.value):
                    remove = True
            elif isinstance(stmt, ir.CopyArray):
                if stmt.dst not in live_arrays:
                    remove = True
            elif isinstance(stmt, ir.ForRange):
                changed |= self._sweep(stmt.body, live_scalars, live_arrays)
                if self._loop_only_writes_dead(stmt, live_arrays,
                                               live_scalars):
                    remove = True
            elif isinstance(stmt, (ir.While, ir.If)):
                for sub in stmt.substatements():
                    changed |= self._sweep(sub, live_scalars, live_arrays)
                if isinstance(stmt, ir.If) and not stmt.then_body and \
                        not stmt.else_body:
                    remove = True
            if remove:
                del body[index]
                changed = True
            else:
                index += 1
        return changed

    def _is_pure(self, expr: ir.Expr) -> bool:
        return not any(isinstance(node, ir.IntrinsicCall)
                       for node in ir.walk_expr(expr))

    def _loop_only_writes_dead(self, loop: ir.ForRange,
                               live_arrays: set[str],
                               live_scalars: set[str]) -> bool:
        """A loop whose only effects are writes to dead targets is dead.

        The induction variable itself is an effect: MATLAB leaves it
        holding its final value, so a loop variable read *outside* the
        loop keeps the loop.
        """
        for stmt in ir.walk_statements(loop.body):
            if isinstance(stmt, (ir.Emit, ir.Call, ir.IntrinsicStmt,
                                 ir.Return, ir.Break, ir.Continue,
                                 ir.While)):
                return False
            if isinstance(stmt, (ir.Store, ir.VecStore)) and \
                    stmt.array in live_arrays:
                return False
            if isinstance(stmt, ir.CopyArray) and stmt.dst in live_arrays:
                return False
            if isinstance(stmt, ir.AssignVar) and stmt.name in live_scalars:
                return False
        # Only now the whole-function walk: almost every loop writes
        # something live and has already been kept above.
        return not read_outside_loop(self._func_body, loop, loop.var)


def _reads(body: list[ir.Stmt]) -> tuple[set[str], set[str]]:
    """The scalar names and the array names read in ``body``."""
    used: set[str] = set()
    loaded: set[str] = set()
    for stmt in ir.walk_statements(body):
        for expr in ir.statement_exprs(stmt):
            for node in ir.walk_expr(expr):
                if isinstance(node, ir.VarRef):
                    used.add(node.name)
                elif isinstance(node, (ir.Load, ir.VecLoad)):
                    loaded.add(node.array)
        if isinstance(stmt, ir.CopyArray):
            loaded.add(stmt.src)
        elif isinstance(stmt, ir.Call):
            loaded.update(a for a in stmt.args if isinstance(a, str))
    return used, loaded


def _writes(body: list[ir.Stmt]) -> set[str]:
    """The scalar and array names written in ``body``."""
    written: set[str] = set()
    for stmt in ir.walk_statements(body):
        if isinstance(stmt, ir.AssignVar):
            written.add(stmt.name)
        elif isinstance(stmt, (ir.Store, ir.VecStore)):
            written.add(stmt.array)
        elif isinstance(stmt, ir.ForRange):
            written.add(stmt.var)
        elif isinstance(stmt, ir.CopyArray):
            written.add(stmt.dst)
        elif isinstance(stmt, ir.Call):
            written.update(stmt.results)
    return written
