"""Counted ``while`` loops rewritten as ``for`` loops.

MLIR's ``scf.while`` → ``scf.for`` rewrite ("Enabling RISC-V Vector
Code Generation in MLIR through Custom xDSL Lowerings"): the loop

    v = c0; while v <op> e; body; v = v + c; end

becomes a :class:`~repro.ir.nodes.ForRange` over a fresh ``I32``
counter, the shape the lowerer builds for ``for v = c0:c:e``, which the
vectorizer and the loop passes understand.  ``<op>`` is one of ``<``,
``<=``, ``>``, ``>=`` and the sign of ``c`` must agree with it.  The
rewrite requires:

* ``c0`` and ``c`` are integral constants, ``c != 0``;
* ``e`` is an integral constant, or an integer-typed expression that
  reads no scalar the body writes and no array at all;
* the body holds no ``break``, ``continue`` or ``return`` at any depth
  and writes ``v`` only in its final increment;
* every counter value, the exit value and the ``for`` loop's stop fit in
  ``I32`` and are exact in ``v``'s type and in every cast the match
  looks through (a run-time bound ranges over its whole type, so an
  ``int32`` bound is refused).

A double bound such as ``-1.5`` is refused: the ``I32`` counter would
have to truncate it, and a NaN bound would be undefined behaviour in C.
The body reads the counter, converted to ``v``'s type, wherever it read
``v`` (constant folding then drops the ``i32 <- f64 <- i32`` round trip
of an index); the init and the increment are dropped.  When ``v`` is
read outside the loop (or is an output), ``v`` is assigned its exit
value after the loop: ``c0`` when the loop runs zero times.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.ir import nodes as ir
from repro.ir.affine import scalar_reads
from repro.ir.passes.rewrite import names_read, rewrite_tree, writes
from repro.ir.types import EXACT_INTEGERS, I32, ScalarKind, ScalarType
from repro.observe import remarks as obs_remarks

#: Comparison → (the step's sign, the bound's offset to an exclusive
#: ``ForRange`` stop).
_TESTS = {"lt": (1, 0), "le": (1, 1), "gt": (-1, 0), "ge": (-1, -1)}

_BARRIERS = (ir.Break, ir.Continue, ir.Return)


def _kind(expr: ir.Expr) -> ScalarKind | None:
    return expr.type.kind if isinstance(expr.type, ScalarType) else None


def _fits(kind: ScalarKind | None, low: int, high: int) -> bool:
    """Does ``kind`` hold every integer from ``low`` to ``high``?"""
    span = EXACT_INTEGERS.get(kind)
    return span is not None and span[0] <= low and high <= span[1]


def _integral(expr: ir.Expr) -> int | None:
    """The value of an integral real constant, else None."""
    if not isinstance(expr, ir.Const):
        return None
    value = expr.value
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not float(value).is_integer():
        return None
    return int(value)


def _strip(expr: ir.Expr, kinds: list[ScalarKind]) -> ir.Expr:
    """``expr`` under its casts, whose kinds go to ``kinds``."""
    while isinstance(expr, ir.Cast):
        kinds.append(_kind(expr))
        expr = expr.operand
    return expr


class _Match(NamedTuple):
    """One matched loop: what the rewrite needs."""

    var: str
    var_type: ScalarType
    start: int
    step: int
    stop: ir.Expr           # the exclusive ForRange stop
    body: list[ir.Stmt]     # without the increment


class WhileToFor:
    name = "while-to-for"

    def run(self, func: ir.IRFunction) -> bool:
        if not any(isinstance(stmt, ir.While)
                   for stmt in ir.walk_statements(func.body)):
            return False
        self._func = func
        return self._walk(func.body)

    def _walk(self, body: list[ir.Stmt]) -> bool:
        changed = False
        index = 0
        while index < len(body):
            stmt = body[index]
            for sub in stmt.substatements():
                changed |= self._walk(sub)
            if isinstance(stmt, ir.While) and index > 0:
                match = self._match(body[index - 1], stmt)
                if match is not None:
                    new = self._rewrite(match, stmt)
                    body[index - 1:index + 1] = new
                    index += len(new) - 2
                    changed = True
            index += 1
        return changed

    def _match(self, init: ir.Stmt, loop: ir.While) -> _Match | None:
        if not (isinstance(init, ir.AssignVar) and loop.body):
            return None
        var = init.name
        start = _integral(init.value)
        var_type = self._func.local_type(var)
        if start is None or not isinstance(var_type, ScalarType):
            return None
        kinds = [var_type.kind]
        cond = loop.condition
        if not (isinstance(cond, ir.BinOp) and cond.op in _TESTS):
            return None
        sign, offset = _TESTS[cond.op]
        left = _strip(cond.left, kinds)
        if not (isinstance(left, ir.VarRef) and left.name == var):
            return None
        step = self._step(loop.body[-1], var, kinds)
        if step is None or step * sign <= 0:
            return None
        rest = loop.body[:-1]
        if any(isinstance(stmt, _BARRIERS)
               for stmt in ir.walk_statements(rest)):
            return None
        names, _ = writes(rest)
        if var in names:
            return None
        names.add(var)
        bound = self._bound(cond.right, names)
        if bound is None:
            return None
        # The values the counter, the stop and the exit can take.
        if isinstance(bound, int):
            trips = len(range(start, bound + offset, step))
            values = (start, start + trips * step, bound + offset)
            stop: ir.Expr = ir.Const(I32, bound + offset)
        else:
            low, high = EXACT_INTEGERS[_kind(bound)]
            values = (start, low + offset - abs(step),
                      high + offset + abs(step))
            stop = ir.Cast(I32, operand=bound)
            if offset:
                stop = ir.BinOp(I32, op="add", left=stop,
                                right=ir.Const(I32, offset))
        low, high = min(values), max(values)
        if not all(_fits(kind, low, high)
                   for kind in kinds + [ScalarKind.I32]):
            return None
        return _Match(var, var_type, start, step, stop, rest)

    @staticmethod
    def _step(stmt: ir.Stmt, var: str, kinds: list) -> int | None:
        """``c`` of a final ``v = v + c`` (or ``v - c``, ``c + v``)."""
        if not isinstance(stmt, ir.AssignVar) or stmt.name != var:
            return None
        value = _strip(stmt.value, kinds)
        if not (isinstance(value, ir.BinOp) and value.op in ("add", "sub")):
            return None
        left, right = value.left, value.right
        if value.op == "add" and isinstance(left, ir.Const):
            left, right = right, left
        left = _strip(left, kinds)
        step = _integral(right)
        if not (isinstance(left, ir.VarRef) and left.name == var) or \
                not step:
            return None
        return step if value.op == "add" else -step

    @staticmethod
    def _bound(expr: ir.Expr, written: set[str]) -> int | ir.Expr | None:
        """The bound as an int, or as an integer-typed expression the
        body cannot change; None when it is neither."""
        constant = _integral(expr)
        if constant is not None:
            return constant
        # Widening an integer to a float that holds it keeps its value.
        while isinstance(expr, ir.Cast) and _kind(expr).is_float:
            inner = _kind(expr.operand)
            if inner is None or not inner.is_integer or \
                    not _fits(_kind(expr), *EXACT_INTEGERS[inner]):
                break
            expr = expr.operand
        kind = _kind(expr)
        if kind is None or not kind.is_integer:
            return None
        reads = scalar_reads(expr)
        if reads is None or reads & written:
            return None
        return expr

    def _rewrite(self, match: _Match, loop: ir.While) -> list[ir.Stmt]:
        func = self._func
        var, var_type = match.var, match.var_type
        counter = self._fresh()
        func.declare(counter, I32)

        def counter_for_var(expr: ir.Expr) -> ir.Expr:
            if isinstance(expr, ir.VarRef) and expr.name == var:
                return _coerce(ir.VarRef(I32, counter), var_type)
            return expr

        rewrite_tree(match.body, counter_for_var)
        new = ir.ForRange(var=counter, start=ir.Const(I32, match.start),
                          stop=match.stop, step=match.step, body=match.body)
        new.line = loop.line
        out: list[ir.Stmt] = [new]
        if var in names_read(func.body, loop) or \
                any(p.name == var for p in func.outputs):
            last = ir.AssignVar(var, _coerce(_exit(match.start, match.step,
                                                   match.stop), var_type))
            last.line = loop.line
            out.append(last)
        obs_remarks.passed(
            self.name,
            f"rewrote the counted while loop over {var!r} as a for loop",
            function=func.name, line=loop.line, variable=var)
        return out

    def _fresh(self) -> str:
        func = self._func
        taken = set(func.locals)
        taken.update(p.name for p in func.params)
        taken.update(p.name for p in func.outputs)
        number = 1
        while f"_wc{number}" in taken:
            number += 1
        return f"_wc{number}"


def _coerce(expr: ir.Expr, target: ScalarType) -> ir.Expr:
    """An ``I32`` value as ``target``; the range checks make it exact."""
    if isinstance(expr, ir.Const):
        value = expr.value if target.is_integer else float(expr.value)
        return ir.Const(target, value)
    if target.kind is ScalarKind.I32:
        return expr
    return ir.Cast(target, operand=expr)


def _exit(start: int, step: int, stop: ir.Expr) -> ir.Expr:
    """The counter's first value that fails the test, ``start + trips *
    step``: ``start`` when the loop runs zero times."""
    if isinstance(stop, ir.Const):
        trips = len(range(start, stop.value, step))
        return ir.Const(I32, start + trips * step)
    # trips = ceil(distance / |step|), or 0 for a negative distance; the
    # clamp makes the numerator non-negative, so truncation floors it.
    distance: ir.Expr = ir.BinOp(I32, op="sub", left=ir.clone(stop),
                                 right=ir.Const(I32, start))
    if step < 0:
        distance = ir.UnOp(I32, op="neg", operand=distance)
    span = abs(step)
    if span > 1:
        distance = ir.BinOp(I32, op="add", left=distance,
                            right=ir.Const(I32, span - 1))
    trips: ir.Expr = ir.BinOp(I32, op="max", left=distance,
                              right=ir.Const(I32, 0))
    if span > 1:
        trips = ir.BinOp(I32, op="div", left=trips,
                         right=ir.Const(I32, span))
    return ir.BinOp(I32, op="add", left=ir.Const(I32, start),
                    right=ir.BinOp(I32, op="mul", left=trips,
                                   right=ir.Const(I32, step)))
