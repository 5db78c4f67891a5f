"""Innermost-loop SIMD vectorization against the target's instruction set.

The vectorizer pattern-matches innermost ``ForRange`` loops whose bodies
consist of scalar temporaries, element stores with unit-stride indices,
and additive reductions.  Matched loops are strip-mined: a main loop
steps by the SIMD width executing custom-instruction calls
(:class:`~repro.ir.nodes.IntrinsicCall`, :class:`~repro.ir.nodes.VecLoad`,
:class:`~repro.ir.nodes.VecStore`), and a scalar tail loop handles the
remainder.  Reductions accumulate into a vector register and fold with a
horizontal-reduction instruction after the loop.

Every arithmetic operation comes from a row of
:data:`~repro.vectorize.select.PATTERNS` (the ``simd-vectorize`` lane
rows and the ``simd-reduce`` reduction rows, the fused ``vmac`` ahead of
the plain one), picked by :func:`~repro.vectorize.select.select_row`
against the parameterized
:class:`~repro.asip.model.ProcessorDescription`: an operation the target
lacks simply keeps its loop scalar — this is what makes the compiler
retargetable.
"""

from __future__ import annotations

from repro.asip.model import ProcessorDescription
from repro.ir import nodes as ir
from repro.ir.affine import affine, trip_count
from repro.ir.passes.rewrite import names_read, writes
from repro.ir.types import I32, ScalarKind, ScalarType, VectorType
from repro.observe import remarks as obs_remarks
from repro.vectorize.select import candidates, pattern_index, select_row

#: The lane-op and reduction rows of the pattern table, by root class
#: and op.
_LANE_ROWS = pattern_index("simd-vectorize")
_REDUCTION_ROWS = pattern_index("simd-reduce")


class SimdVectorizer:
    """Vectorizes one IR function for a given processor."""

    name = "simd-vectorize"

    def __init__(self, processor: ProcessorDescription):
        self.processor = processor
        self._counter = 0

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def run(self, func: ir.IRFunction) -> bool:
        self._func = func
        # names_read of each top-level statement, by id (see
        # _read_outside); an entry keeps its statement alive, so the id
        # cannot be reused while it is cached.
        self._reads: dict[int, tuple[ir.Stmt, set[str]]] = {}
        return self._walk(func.body, None)

    # ------------------------------------------------------------------
    # Remarks
    # ------------------------------------------------------------------

    def _missed(self, loop: ir.Stmt, message: str, **args) -> None:
        obs_remarks.missed(self.name, message,
                           function=self._func.name, line=loop.line,
                           **args)

    def _passed(self, loop: ir.Stmt, message: str, **args) -> None:
        obs_remarks.passed(self.name, message,
                           function=self._func.name, line=loop.line,
                           **args)

    def _read_outside(self, loop: ir.ForRange, top: ir.Stmt) -> set[str]:
        """The names read (as live values) outside ``loop``.

        ``loop`` lies in the top-level statement ``top``.  A loop-local
        temporary (or the induction variable) that is read after the
        loop would hold the wrong value when the vector main loop
        covers all iterations and the scalar tail never runs.  The set
        is ``names_read(body, loop)`` of the function body, built from
        one walk of ``top`` and the cached reads of every other
        top-level statement: the vectorizer only rewrites inside
        ``top``, so ``top``'s own entry is dropped here and rebuilt the
        next time another statement's loop asks.
        """
        self._reads.pop(id(top), None)
        names = names_read([top], loop)
        for stmt in self._func.body:
            if stmt is top:
                continue
            cached = self._reads.get(id(stmt))
            if cached is None:
                cached = self._reads[id(stmt)] = (stmt, names_read([stmt]))
            names |= cached[1]
        # A function output is read by the caller after the loop even
        # when no statement in the body mentions it again.
        names.update(p.name for p in self._func.outputs)
        return names

    def _walk(self, body: list[ir.Stmt], top: ir.Stmt | None) -> bool:
        changed = False
        index = 0
        while index < len(body):
            stmt = body[index]
            owner = stmt if top is None else top
            if isinstance(stmt, ir.ForRange):
                if self._is_innermost(stmt):
                    replacement = self._try_vectorize(stmt, owner)
                    if replacement is not None:
                        body[index:index + 1] = replacement
                        index += len(replacement)
                        changed = True
                        continue
                else:
                    self._missed(stmt, "contains a nested loop; only "
                                       "innermost loops are vectorized")
            elif isinstance(stmt, ir.While):
                self._missed(stmt, "while loops are not vectorized "
                                   "(unknown trip count shape)")
            for sub in stmt.substatements():
                changed |= self._walk(sub, owner)
            index += 1
        return changed

    def _is_innermost(self, loop: ir.ForRange) -> bool:
        return not any(isinstance(s, (ir.ForRange, ir.While))
                       for s in ir.walk_statements(loop.body))

    def _temp(self, prefix: str) -> str:
        # Leading underscore: MATLAB identifiers start with a letter, so
        # generated names can never shadow a source variable.
        self._counter += 1
        return f"_{prefix}_{self._counter}"

    # ------------------------------------------------------------------
    # Loop analysis
    # ------------------------------------------------------------------

    def _try_vectorize(self, loop: ir.ForRange,
                       top: ir.Stmt) -> list[ir.Stmt] | None:
        if loop.step != 1:
            self._missed(loop, f"loop step is {loop.step}; only "
                               "unit-stride (step 1) loops are "
                               "vectorized", step=loop.step)
            return None
        unsupported = next(
            (s for s in ir.walk_statements(loop.body)
             if isinstance(s, (ir.If, ir.Break, ir.Continue, ir.Return,
                               ir.Call, ir.Emit, ir.CopyArray))), None)
        if unsupported is not None:
            self._missed(loop, "body contains a "
                               f"{type(unsupported).__name__} statement "
                               "the vectorizer does not support",
                         statement=type(unsupported).__name__)
            return None
        elem = self._loop_element_type(loop)
        if elem is None:
            self._missed(loop, "loop memory accesses mix element types "
                               "(or touch none); vectorization needs "
                               "exactly one element type")
            return None
        lanes = self._choose_width(loop, elem)
        if lanes is None:
            widths = self.processor.simd_lanes(elem.kind)
            if not widths:
                self._missed(loop, "target "
                                   f"{self.processor.name!r} has no "
                                   "SIMD instructions for "
                                   f"{elem.describe()} elements",
                             element=elem.describe())
            else:
                self._missed(loop, "trip count is smaller than the "
                                   "narrowest SIMD width "
                                   f"({min(widths)} lanes)",
                             narrowest=min(widths))
            return None

        plan = self._plan_body(loop, elem, lanes)
        if plan is None:
            # _plan_body emitted the specific missed remark.
            return None
        live_after = self._read_outside(loop, top)
        if loop.var in live_after:
            self._missed(loop, f"loop variable {loop.var!r} is live "
                               "after the loop; the vector main loop "
                               "would leave it with the wrong value",
                         variable=loop.var)
            return None
        for entry in plan:
            if entry[0] == "temp" and entry[1].name in live_after:
                self._missed(loop, f"temporary {entry[1].name!r} is "
                                   "live after the loop",
                             variable=entry[1].name)
                return None
        replacement = self._emit(loop, elem, lanes, plan)
        n_stores = sum(1 for e in plan if e[0] == "store")
        n_reduce = sum(1 for e in plan if e[0] == "reduce")
        self._passed(loop, f"vectorized with {lanes}-lane "
                           f"{elem.describe()} SIMD "
                           f"({n_stores} store(s), "
                           f"{n_reduce} reduction(s))",
                     lanes=lanes, stores=n_stores, reductions=n_reduce)
        return replacement

    def _choose_width(self, loop: ir.ForRange,
                      elem: ScalarType) -> int | None:
        """Pick the SIMD width for this loop from the target's options.

        With a known trip count, the widest datapath is not always the
        fastest: a 24-iteration loop runs better as three full 8-lane
        chunks than as one 16-lane chunk plus an 8-iteration scalar
        tail.  The proxy cost weights a scalar tail iteration as three
        vector chunks, which matches the modeled datapath.
        """
        widths = self.processor.simd_lanes(elem.kind)
        if not widths:
            return None
        trips = trip_count(loop)
        if trips is None:
            return widths[0]
        best_lanes = None
        best_cost = None
        for lanes in widths:
            if trips < lanes:
                continue
            cost = (trips // lanes) + 3 * (trips % lanes)
            if best_cost is None or cost < best_cost:
                best_cost, best_lanes = cost, lanes
        return best_lanes

    def _loop_element_type(self, loop: ir.ForRange) -> ScalarType | None:
        """The single element kind all memory traffic in the loop uses."""
        # Keyed by the value string, as ProcessorDescription.find keys.
        kinds: dict[str, ScalarKind] = {}
        for stmt in ir.walk_statements(loop.body):
            for expr in ir.statement_exprs(stmt):
                for node in ir.walk_expr(expr):
                    if isinstance(node, ir.Load):
                        kind = node.type.kind
                        kinds[kind._value_] = kind
            if isinstance(stmt, ir.Store):
                value_t = stmt.value.type
                if isinstance(value_t, ScalarType):
                    kinds[value_t.kind._value_] = value_t.kind
        if len(kinds) != 1:
            return None
        return ScalarType(*kinds.values())

    def _plan_body(self, loop: ir.ForRange, elem: ScalarType,
                   lanes: int) -> list[tuple] | None:
        """Classify each body statement; None if anything doesn't fit.

        Plan entries:
            ("store", stmt, vec_value_expr)
            ("temp", stmt, vec_value_expr)
            ("reduce", stmt, row, [step, fold], vec_operands)
        """
        var = loop.var
        # Arrays both loaded at loop-invariant indices and stored in the
        # same loop would make splatted loads stale; reject those.
        self._loop_writes, self._stored_in_loop = writes(loop.body)

        vector_temps: dict[str, VectorType] = {}
        plan: list[tuple] = []
        reduced: set[str] = set()
        for stmt in loop.body:
            if isinstance(stmt, ir.Store):
                stride = self._stride(stmt.index, var)
                if stride != 1:
                    self._missed(loop, "store into "
                                       f"{stmt.array!r} is not "
                                       "unit-stride in the loop variable "
                                       f"(stride {stride})",
                                 array=stmt.array, stride=stride)
                    return None
                value = self._vectorize_expr(stmt.value, var, elem, lanes,
                                             vector_temps)
                if value is None:
                    self._missed(loop, "value stored into "
                                       f"{stmt.array!r} has no vector "
                                       "form on this target",
                                 array=stmt.array)
                    return None
                plan.append(("store", stmt, value))
            elif isinstance(stmt, ir.AssignVar):
                reduction = self._match_reduction(stmt, var, elem, lanes,
                                                  vector_temps)
                if reduction is not None:
                    if stmt.name in reduced:
                        self._missed(loop, "reduction variable "
                                           f"{stmt.name!r} is updated "
                                           "more than once per iteration",
                                     variable=stmt.name)
                        return None
                    reduced.add(stmt.name)
                    plan.append(reduction)
                    continue
                value = self._vectorize_expr(stmt.value, var, elem, lanes,
                                             vector_temps)
                if value is None:
                    self._missed(loop, "assignment to "
                                       f"{stmt.name!r} has no vector "
                                       "form on this target",
                                 variable=stmt.name)
                    return None
                if not isinstance(value.type, VectorType):
                    self._missed(loop, "assignment to "
                                       f"{stmt.name!r} stays scalar; "
                                       "nothing to vectorize",
                                 variable=stmt.name)
                    return None
                vector_temps[stmt.name] = value.type
                plan.append(("temp", stmt, value))
            else:
                self._missed(loop, "body contains a "
                                   f"{type(stmt).__name__} statement the "
                                   "vectorizer does not support",
                             statement=type(stmt).__name__)
                return None
        # A reduction accumulator must not be read by other statements.
        for kind, stmt, *rest in plan:
            if kind == "reduce":
                continue
            names: set[str] = set()
            for expr in ir.statement_exprs(stmt):
                for node in ir.walk_expr(expr):
                    if isinstance(node, ir.VarRef):
                        names.add(node.name)
            if names & reduced:
                clash = sorted(names & reduced)[0]
                self._missed(loop, "reduction accumulator "
                                   f"{clash!r} is read by another "
                                   "statement in the loop body",
                             variable=clash)
                return None
        return plan

    def _stride(self, expr: ir.Expr, var: str) -> int | None:
        """How much ``expr`` moves per step of ``var`` (0: invariant), or
        None when it is not affine or reads what the loop writes."""
        form = affine(expr, (var,), self._loop_writes, self._stored_in_loop)
        return None if form is None else form.coeffs.get(var, 0)

    # ------------------------------------------------------------------
    # Expression vectorization
    # ------------------------------------------------------------------

    def _vectorize_expr(self, expr: ir.Expr, var: str, elem: ScalarType,
                        lanes: int,
                        vector_temps: dict[str, VectorType]) -> ir.Expr | None:
        vtype = VectorType(elem, lanes)

        if isinstance(expr, ir.Load) and expr.type == elem:
            stride = self._stride(expr.index, var)
            if stride == 1:
                instr = self.processor.find("vload", elem.kind, lanes)
                if instr is None:
                    return None
                return ir.VecLoad(vtype, array=expr.array,
                                  base=ir.clone(expr.index),
                                  instruction=instr)
            if stride == -1:
                # Descending access x(n-k): a reversed vector load reads
                # lanes idx, idx-1, ..., idx-(L-1); its base (lowest
                # address) is idx - (L-1).
                instr = self.processor.find("vloadr", elem.kind, lanes)
                if instr is None:
                    return None
                base = ir.BinOp(I32, op="sub",
                                left=ir.clone(expr.index),
                                right=ir.Const(I32, lanes - 1))
                return ir.VecLoad(vtype, array=expr.array, base=base,
                                  instruction=instr, reverse=True)
            if stride == 0 and expr.array not in self._stored_in_loop:
                return self._splat(ir.clone(expr), elem, lanes)
        if isinstance(expr, ir.VarRef) and expr.name in vector_temps:
            return ir.VarRef(vector_temps[expr.name], expr.name)

        rows = candidates(_LANE_ROWS, expr)
        if rows:
            fit = select_row(rows, expr, elem, self.processor, lanes,
                             lambda operand: self._vectorize_expr(
                                 operand, var, elem, lanes, vector_temps))
            if fit is not None:
                _, (instr,), args = fit
                return ir.IntrinsicCall(vtype, instruction=instr, args=args)
            if any(row.elem(elem) for row in rows):
                # A lane op that does not fit is not splatted either.
                return None
        if isinstance(expr, ir.BinOp):
            # No lane op: not even an invariant BinOp is splatted.
            return None

        # A loop-invariant scalar of the element type is splatted.
        if isinstance(expr.type, ScalarType) and expr.type == elem and \
                self._stride(expr, var) == 0:
            return self._splat(ir.clone(expr), elem, lanes)
        return None

    def _splat(self, operand: ir.Expr, elem: ScalarType,
               lanes: int) -> ir.Expr | None:
        instr = self.processor.find("vsplat", elem.kind, lanes)
        if instr is None:
            return None
        return ir.IntrinsicCall(VectorType(elem, lanes), instruction=instr,
                                args=[operand])

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def _match_reduction(self, stmt: ir.AssignVar, var: str,
                         elem: ScalarType, lanes: int,
                         vector_temps: dict) -> tuple | None:
        """``acc = acc <op> term`` as a plan entry, by the first
        reduction row that fits ``term``; None if none does."""
        value = stmt.value
        rows = candidates(_REDUCTION_ROWS, value)
        if not rows:
            return None
        if isinstance(value.left, ir.VarRef) and value.left.name == stmt.name:
            term = value.right
        elif isinstance(value.right, ir.VarRef) and \
                value.right.name == stmt.name:
            term = value.left
        else:
            return None
        if not isinstance(value.type, ScalarType) or value.type != elem:
            return None
        fit = select_row(rows, term, elem, self.processor, lanes,
                         lambda operand: self._vectorize_expr(
                             operand, var, elem, lanes, vector_temps))
        return None if fit is None else ("reduce", stmt, *fit)

    # ------------------------------------------------------------------
    # Code emission
    # ------------------------------------------------------------------

    def _emit(self, loop: ir.ForRange, elem: ScalarType, lanes: int,
              plan: list[tuple]) -> list[ir.Stmt]:
        func = self._func
        vtype = VectorType(elem, lanes)
        out: list[ir.Stmt] = []

        # Trip-count split: main = start + floor((stop-start)/VL)*VL.
        trips = trip_count(loop)
        if trips is not None:
            main_stop: ir.Expr = ir.Const(
                I32, loop.start.value + (trips // lanes) * lanes)
        else:
            name = self._temp("vstop")
            func.declare(name, I32)
            span = ir.BinOp(I32, op="sub", left=ir.clone(loop.stop),
                            right=ir.clone(loop.start))
            chunks = ir.BinOp(I32, op="div", left=span,
                              right=ir.Const(I32, lanes))
            scaled = ir.BinOp(I32, op="mul", left=chunks,
                              right=ir.Const(I32, lanes))
            total = ir.BinOp(I32, op="add", left=ir.clone(loop.start),
                             right=scaled)
            out.append(ir.AssignVar(name, total))
            main_stop = ir.VarRef(I32, name)

        # Reduction prologues: every lane of a vector accumulator starts
        # at its row's identity.
        reductions = [entry for entry in plan if entry[0] == "reduce"]
        accumulators: dict[str, str] = {}
        for _, stmt, row, _, _ in reductions:
            vacc = accumulators[stmt.name] = self._temp("vacc")
            func.declare(vacc, vtype)
            identity = ir.Const(elem, complex(row.identity)
                                if elem.is_complex else row.identity)
            out.append(ir.AssignVar(vacc,
                                    self._splat(identity, elem, lanes)))

        # Main vector body.  Vector temporaries get fresh names so the
        # scalar tail loop keeps using the original scalar variables.
        tail_body = ir.clone(loop.body)
        main_body: list[ir.Stmt] = []
        renames: dict[str, str] = {}
        for entry in plan:
            if entry[0] == "temp":
                renames[entry[1].name] = self._temp("v" + entry[1].name)

        def rename_refs(expr: ir.Expr) -> None:
            for node in ir.walk_expr(expr):
                if isinstance(node, ir.VarRef) and node.name in renames and \
                        isinstance(node.type, VectorType):
                    node.name = renames[node.name]

        vstore = self.processor.find("vstore", elem.kind, lanes)
        for entry in plan:
            kind, stmt = entry[0], entry[1]
            if kind == "store":
                rename_refs(entry[2])
                main_body.append(ir.VecStore(
                    array=stmt.array, base=stmt.index, value=entry[2],
                    instruction=vstore))
            elif kind == "temp":
                rename_refs(entry[2])
                new_name = renames[stmt.name]
                main_body.append(ir.AssignVar(new_name, entry[2]))
                func.declare(new_name, entry[2].type)
            else:
                (step, _), args = entry[3], entry[4]
                for arg in args:
                    rename_refs(arg)
                vacc = accumulators[stmt.name]
                main_body.append(ir.AssignVar(vacc, ir.IntrinsicCall(
                    vtype, instruction=step,
                    args=[ir.VarRef(vtype, vacc), *args])))
            # Vector statements inherit the source line of the scalar
            # statement they replace, so hotspot profiles attribute
            # their cycles to the original MATLAB line.
            main_body[-1].line = stmt.line

        out.append(ir.ForRange(var=loop.var, start=loop.start,
                               stop=main_stop, step=lanes, body=main_body))

        # Reduction epilogues: fold the vector accumulator into the
        # scalar before the tail loop continues accumulating.
        for _, stmt, row, (_, fold), _ in reductions:
            folded = ir.IntrinsicCall(
                elem, instruction=fold,
                args=[ir.VarRef(vtype, accumulators[stmt.name])])
            out.append(ir.AssignVar(stmt.name, ir.BinOp(
                elem, op=row.op,
                left=ir.VarRef(elem, stmt.name), right=folded)))

        # Scalar tail.
        out.append(ir.ForRange(var=loop.var, start=ir.clone(main_stop),
                               stop=loop.stop, step=1, body=tail_body))
        # Compiler-generated glue (trip split, prologues, epilogues, the
        # strip-mined loop headers) maps to the loop's own source line.
        for top in out:
            for sub in ir.walk_statements([top]):
                if sub.line == 0:
                    sub.line = loop.line
        return out
