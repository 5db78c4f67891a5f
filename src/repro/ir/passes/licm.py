"""Loop-invariant code motion (conservative).

Hoists scalar assignments out of ``ForRange`` loops when the right-hand
side is pure, reads no arrays, depends only on variables the loop does
not modify, and the loop provably runs at least once (constant bounds) —
so a variable read after the loop still holds the same value.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.affine import scalar_reads, trip_count
from repro.ir.passes.rewrite import assigned_vars
from repro.observe import remarks as obs_remarks


class LoopInvariantCodeMotion:
    name = "licm"

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
            if isinstance(stmt, ir.ForRange):
                hoisted = self._hoist_from(stmt)
                if hoisted:
                    body[index:index] = hoisted
                    index += len(hoisted)
                    changed = True
            index += 1
        return changed

    def _hoist_from(self, loop: ir.ForRange) -> list[ir.Stmt]:
        if not trip_count(loop):
            return []
        loop_writes = assigned_vars(loop.body) | {loop.var}
        hoisted: list[ir.Stmt] = []
        # Only a prefix of the body may be hoisted: later statements may
        # depend on values the loop computes.
        while loop.body:
            stmt = loop.body[0]
            if not isinstance(stmt, ir.AssignVar):
                break
            # The full loop-write set includes the statement's own
            # target: an accumulator whose RHS reads itself
            # (acc = acc + inv) is NOT invariant even though every
            # other operand is.
            reads = scalar_reads(stmt.value)
            if reads is None or reads & loop_writes:
                break
            if self._assign_count(loop.body, stmt.name) != 1:
                break
            hoisted.append(loop.body.pop(0))
            obs_remarks.passed(
                self.name,
                f"hoisted loop-invariant assignment to {stmt.name!r} "
                "out of the loop",
                function=self._func.name, line=stmt.line,
                variable=stmt.name)
        return hoisted

    def _assign_count(self, body: list[ir.Stmt], name: str) -> int:
        count = 0
        for stmt in ir.walk_statements(body):
            if isinstance(stmt, ir.AssignVar) and stmt.name == name:
                count += 1
            elif isinstance(stmt, ir.ForRange) and stmt.var == name:
                count += 1
            elif isinstance(stmt, ir.Call) and name in stmt.results:
                count += 1
        return count
