"""Forwarding of gathered slice temporaries.

The lowerer turns a slice like ``a(k, :)`` of a matrix into a copy nest
that gathers the row into a fresh temporary, one element per outer
iteration (a range ``x(p:q)`` of a vector gets the same loop without
the inner trip-one loop)::

    for j = 0 .. n:
      for i = 0 .. 1:
        T[i + j*1] = A[g(j)]

When ``T`` is then read exactly once, as ``T[v]`` inside a loop over
the same range, the copy buys nothing: the read becomes ``A[g(v)]``
and dead-code elimination deletes the nest and the temporary.  A
candidate is forwarded only when all of these hold:

* the nest is a top-level statement of that shape (with or without
  the inner loop): its bounds are constants and, by
  :func:`~repro.ir.affine.affine`, its store writes element ``j``;
* ``g`` reads no array and no scalar but ``j`` that any statement of
  the function writes (``i`` is one);
* ``T`` is a local (not a parameter or output) written only by the nest
  and read exactly once, by a plain ``Load`` after the nest (a read by
  a ``Call`` or ``CopyArray`` is a read too);
* the source ``A`` is written nowhere in the function;
* the read's index is the induction variable ``v`` of its innermost
  enclosing loop named ``v``, a loop with the nest's bounds and step,
  and nothing else assigns ``v``.

The single-read rule matters: a slice read several times costs one
index computation per forwarded read instead of one copy, which is a
loss.  Trip-one loops are not folded here; measured on the corpus,
folding them made ``inv3x3`` slower.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import nodes as ir
from repro.ir.affine import affine, scalar_reads, trip_count
from repro.ir.types import ArrayType
from repro.observe import remarks as obs_remarks


@dataclass
class _Candidate:
    """A matched copy nest ``T[i + j] = A[g(j)]`` at top level."""

    position: int
    nest: ir.ForRange
    source: ir.Load          # the ``A[g(j)]`` of the copy
    read: ir.Load | None = None
    read_position: int = -1
    refused: bool = False


class SliceForwarding:
    name = "slice-forwarding"

    def run(self, func: ir.IRFunction) -> bool:
        candidates = self._match_nests(func)
        if not candidates:
            return False
        array_writes, scalar_writes, assigned = self._scan(func, candidates)
        changed = False
        for temp, cand in candidates.items():
            if cand.refused or cand.read is None or \
                    cand.read_position <= cand.position or \
                    cand.read.type != cand.source.type or \
                    array_writes.get(temp, 0) != 1 or \
                    cand.source.array in array_writes:
                continue
            outer = cand.nest.var
            reads = scalar_reads(cand.source.index)
            if cand.read.index.name in assigned or reads is None or \
                    (reads - {outer}) & scalar_writes:
                continue
            self._forward(cand, outer)
            obs_remarks.passed(
                self.name,
                f"reads slice '{cand.source.array}' in place instead of "
                f"copying it into '{temp}'",
                function=func.name, line=cand.nest.line)
            changed = True
        return changed

    # -- matching ---------------------------------------------------------

    def _match_nests(self, func: ir.IRFunction) -> dict[str, _Candidate]:
        """Top-level copy nests into local temporaries, keyed by the
        temporary; a temporary with two matching nests is refused."""
        candidates: dict[str, _Candidate] = {}
        for position, stmt in enumerate(func.body):
            store = _copy_store(stmt)
            if store is None:
                continue
            temp = store.array
            if not isinstance(func.locals.get(temp), ArrayType):
                continue
            if temp in candidates:
                candidates[temp].refused = True
                continue
            candidates[temp] = _Candidate(position, stmt, store.value)
        return candidates

    def _scan(self, func: ir.IRFunction,
              candidates: dict[str, _Candidate],
              ) -> tuple[dict[str, int], set[str], set[str]]:
        """One walk of the function: records each candidate's reads and
        returns the array write counts, every written scalar, and the
        scalars written other than as an induction variable."""
        array_writes: dict[str, int] = {}
        scalar_writes: set[str] = set()
        assigned: set[str] = set()

        def refuse(name: str) -> None:
            cand = candidates.get(name)
            if cand is not None:
                cand.refused = True

        def read(load: ir.Load, loops: dict[str, ir.ForRange],
                 position: int) -> None:
            cand = candidates.get(load.array)
            if cand is None:
                return
            if cand.read is not None:
                cand.refused = True
                return
            loop = loops.get(load.index.name) \
                if isinstance(load.index, ir.VarRef) else None
            if loop is None or (loop.start, loop.stop, loop.step) != \
                    (cand.nest.start, cand.nest.stop, cand.nest.step):
                cand.refused = True
                return
            cand.read = load
            cand.read_position = position

        def walk(body: list[ir.Stmt], loops: dict[str, ir.ForRange],
                 position: int) -> None:
            for stmt in body:
                for expr in ir.statement_exprs(stmt):
                    for node in ir.walk_expr(expr):
                        if isinstance(node, ir.Load):
                            read(node, loops, position)
                        elif isinstance(node, ir.VecLoad):
                            refuse(node.array)
                if isinstance(stmt, (ir.Store, ir.VecStore)):
                    array_writes[stmt.array] = \
                        array_writes.get(stmt.array, 0) + 1
                elif isinstance(stmt, ir.AssignVar):
                    scalar_writes.add(stmt.name)
                    assigned.add(stmt.name)
                elif isinstance(stmt, ir.CopyArray):
                    array_writes[stmt.dst] = array_writes.get(stmt.dst, 0) + 1
                    refuse(stmt.src)
                    refuse(stmt.dst)
                elif isinstance(stmt, ir.Call):
                    for arg in stmt.args:
                        if isinstance(arg, str):
                            refuse(arg)
                    for name in stmt.results:
                        array_writes[name] = array_writes.get(name, 0) + 1
                        scalar_writes.add(name)
                        assigned.add(name)
                        refuse(name)
                if isinstance(stmt, ir.ForRange):
                    scalar_writes.add(stmt.var)
                    walk(stmt.body, {**loops, stmt.var: stmt}, position)
                else:
                    for sub in stmt.substatements():
                        walk(sub, loops, position)

        for position, stmt in enumerate(func.body):
            walk([stmt], {}, position)
        return array_writes, scalar_writes, assigned

    # -- rewriting --------------------------------------------------------

    def _forward(self, cand: _Candidate, outer: str) -> None:
        """Turn the read ``T[v]`` into ``A[g(v)]`` in place."""
        index = ir.clone(cand.source.index)
        var = cand.read.index.name
        for node in ir.walk_expr(index):
            if isinstance(node, ir.VarRef) and node.name == outer:
                node.name = var
        cand.read.array = cand.source.array
        cand.read.index = index


def _copy_store(stmt: ir.Stmt) -> ir.Store | None:
    """The store ``T[i + j*1] = A[g(j)]`` of a copy nest ``for j in
    0..n: [for i in 0..1:] ...``, or None when ``stmt`` is not one: a
    loop with constant bounds, optionally around a loop that runs once
    with ``i = 0``, whose single store writes element ``j``."""
    if not (isinstance(stmt, ir.ForRange) and
            trip_count(stmt) is not None and len(stmt.body) == 1):
        return None
    store, loop_vars = stmt.body[0], (stmt.var,)
    if isinstance(store, ir.ForRange) and trip_count(store) == 1 and \
            store.start.value == 0 and len(store.body) == 1:
        store, loop_vars = store.body[0], (stmt.var, store.var)
    if not isinstance(store, ir.Store) or \
            not isinstance(store.value, ir.Load) or \
            store.value.array == store.array:
        return None
    # As ``i`` is 0, its coefficient does not matter.
    offset = affine(store.index, loop_vars)
    if offset is None or offset.coeffs.get(stmt.var) != 1 or \
            offset.constant or offset.terms:
        return None
    return store
