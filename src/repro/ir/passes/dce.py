"""Dead-code elimination.

Removes assignments to scalar variables that are never read (and are not
function outputs), element stores, loops and copies producing arrays that
are never read (and are not parameters or outputs), and unused local
declarations.  An element store into such an array goes even when its
loop stays live for other writes.  Iterates naturally with the pass
manager: removing one dead assignment can make another's operands dead
in the next round.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.passes.rewrite import (
    read_outside_loop,
    reads,
    used_vars,
    writes,
)


class DeadCodeElimination:
    name = "dce"

    def run(self, func: ir.IRFunction) -> bool:
        keep = {p.name for p in func.outputs}
        keep.update(p.name for p in func.params)

        used, loaded = reads(func.body)
        live_scalars = used | keep
        live_arrays = loaded | keep

        self._func_body = func.body
        self._readers: dict[str, list[ir.Stmt]] | None = None
        self._removed: set[int] = set()
        changed = self._sweep(func.body, live_scalars, live_arrays)

        # Drop locals that no statement mentions any more.  The sweep
        # only removes statements, so every name still read is in a
        # live set already: only the written names need a look.  When
        # the sweep built the reader map, a name whose every reader was
        # swept (a dead loop's induction variable) is read no more.
        written = set().union(*writes(func.body))
        if self._readers is not None:
            live_scalars = live_scalars - {
                name for name, tops in self._readers.items()
                if all(id(top) in self._removed for top in tops)}
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
            elif isinstance(stmt, ir.Store):
                if stmt.array not in live_arrays and \
                        self._is_pure(stmt.index) and \
                        self._is_pure(stmt.value):
                    remove = True
            elif isinstance(stmt, ir.CopyArray):
                if stmt.dst not in live_arrays:
                    remove = True
            elif isinstance(stmt, ir.ForRange):
                # A dead loop goes whole, before its body is swept: the
                # reader map must still see what the body reads.
                if self._loop_only_writes_dead(stmt, live_arrays,
                                               live_scalars):
                    remove = True
                else:
                    changed |= self._sweep(stmt.body, live_scalars,
                                           live_arrays)
            elif isinstance(stmt, (ir.While, ir.If)):
                for sub in stmt.substatements():
                    changed |= self._sweep(sub, live_scalars, live_arrays)
                if isinstance(stmt, ir.If) and not stmt.then_body and \
                        not stmt.else_body:
                    remove = True
            if remove:
                self._removed.add(id(stmt))
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
            if isinstance(stmt, (ir.Emit, ir.Call, ir.Return, ir.Break,
                                 ir.Continue, ir.While)):
                return False
            if isinstance(stmt, (ir.Store, ir.VecStore)) and \
                    stmt.array in live_arrays:
                return False
            if isinstance(stmt, ir.CopyArray) and stmt.dst in live_arrays:
                return False
            if isinstance(stmt, ir.AssignVar) and stmt.name in live_scalars:
                return False
        # Only now the escape walk: almost every loop writes something
        # live and has already been kept above.  It visits only the
        # top-level statements that read the variable and are still in
        # the body, so its cost does not grow with the loops that die.
        return not read_outside_loop(self._live_readers(loop.var), loop,
                                     loop.var)

    def _live_readers(self, name: str) -> list[ir.Stmt]:
        """The top-level statements still in the body whose tree reads
        scalar ``name``; the map is built once per run, when first
        needed, and the sweep only removes statements."""
        if self._readers is None:
            self._readers = _top_level_readers(self._func_body)
        return [stmt for stmt in self._readers.get(name, ())
                if id(stmt) not in self._removed]


def _top_level_readers(body: list[ir.Stmt]) -> dict[str, list[ir.Stmt]]:
    """For each scalar name, the statements of ``body`` (top level)
    whose tree reads it."""
    readers: dict[str, list[ir.Stmt]] = {}
    for top in body:
        for name in used_vars([top]):
            readers.setdefault(name, []).append(top)
    return readers
