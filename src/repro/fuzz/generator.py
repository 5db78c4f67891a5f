"""Seeded random MATLAB program generator.

Emits *well-typed* programs over the compiler-supported subset: every
variable has a concrete shape, dtype (double/single), and complexness
tracked during generation, so the programs survive shape/type inference
and the four execution paths can be compared on them.

Two modes:

* ``compile`` — only constructs the compiler accepts: static shapes,
  preallocated arrays, scalar/vector/matrix arithmetic, ranges,
  ``end``-relative indexing, for/while/if/switch, user-defined
  subfunctions (single- and multi-return, called with scalar and
  matrix arguments), row and column slices ``m(k, :)`` and ``m(:, k)``
  of matrices (as operands and as subfunction arguments), the builtin
  and library inventory shared by the inferencer and the interpreter.
* ``interp`` — additionally exercises the golden interpreter's more
  permissive features that never reach codegen: growth-by-assignment
  (``g = []; g(k) = ...``), logical indexing, anonymous functions, and
  matrix column iteration.

Floating-point discipline: branch conditions, loop bounds, and switch
subjects are built only from *exact* expressions — values guaranteed
bit-identical across numpy, the cycle simulator, and compiled C
(no reductions with engine-specific summation order, no libm calls, no
mixed single/double arithmetic).  Everything else may differ by ulps
between engines and is judged by the oracle's tolerance instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.frontend import ast_nodes as ast
from repro.frontend.source import Span
from repro.frontend.unparse import to_source

_SPAN = Span.unknown()


def _num(value: float) -> ast.NumberLit:
    return ast.NumberLit(span=_SPAN, value=float(value))


def _name(name: str) -> ast.Identifier:
    return ast.Identifier(span=_SPAN, name=name)


def _call(fn: str, *args: ast.Expr) -> ast.CallIndex:
    return ast.CallIndex(span=_SPAN, target=_name(fn), args=list(args))


def _bin(op: str, left: ast.Expr, right: ast.Expr) -> ast.BinaryOp:
    return ast.BinaryOp(span=_SPAN, op=op, left=left, right=right)


def _assign(target: ast.Expr, value: ast.Expr) -> ast.Assign:
    return ast.Assign(span=_SPAN, target=target, value=value)


# ----------------------------------------------------------------------
# Value facts tracked per variable / expression
# ----------------------------------------------------------------------


@dataclass
class Info:
    """Static facts about one variable or generated expression."""

    rows: int
    cols: int
    dtype: str = "double"      # 'double' | 'single'
    is_complex: bool = False
    #: True when every engine computes the value bit-identically
    #: (safe to branch on).
    exact: bool = True

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1

    @property
    def is_vector(self) -> bool:
        return (self.rows == 1 or self.cols == 1) and not self.is_scalar

    @property
    def numel(self) -> int:
        return self.rows * self.cols

    def merged(self, other: "Info", exact_op: bool = True) -> "Info":
        """Facts for an elementwise combination of two operands."""
        rows, cols = self.shape if not self.is_scalar else other.shape
        dtype = "single" if "single" in (self.dtype, other.dtype) \
            else "double"
        mixed = self.dtype != other.dtype
        return Info(rows, cols, dtype,
                    self.is_complex or other.is_complex,
                    self.exact and other.exact and exact_op and not mixed)


@dataclass
class SubFunction:
    """One generated subfunction plus the facts call sites need.

    ``kind`` is ``'expr'`` for a shape-polymorphic elementwise body
    (call sites may pick any argument shape, so one program can force
    several type specializations of the same function) or ``'stmt'``
    for a fixed-signature body built from the full statement grammar
    (while loops, branches, indexed stores).
    """

    name: str
    kind: str
    params: list[str]
    param_infos: list[Info]
    returns: list[str]
    return_infos: list[Info]
    node: ast.Function


@dataclass
class GeneratedProgram:
    """One generated program plus everything needed to execute it."""

    source: str
    entry: str
    mode: str                         # 'compile' | 'interp'
    seed: int
    #: (dtype, is_complex, rows, cols) per entry-point argument.
    param_specs: list[tuple[str, bool, int, int]]
    #: Input values as nested lists (JSON-serializable; complex values
    #: stored as [re, im] pairs).
    input_values: list[object]
    nargout: int
    returns: list[str] = field(default_factory=list)

    def arg_specs(self):
        """Compiler ``arg()`` descriptions of the parameters."""
        from repro.compiler import arg
        return [arg((rows, cols), dtype=dtype, complex=cplx)
                for dtype, cplx, rows, cols in self.param_specs]

    def inputs(self) -> list[object]:
        """Concrete numpy/scalar inputs matching the parameters."""
        values: list[object] = []
        for (dtype, cplx, rows, cols), stored in zip(self.param_specs,
                                                     self.input_values):
            array = np.array(stored, dtype=np.float64)
            if cplx:
                array = array[..., 0] + 1j * array[..., 1]
            array = array.reshape(rows, cols)
            if dtype == "single":
                array = array.astype(
                    np.complex64 if cplx else np.float32)
            if rows == 1 and cols == 1 and not cplx:
                values.append(float(array[0, 0]))
            else:
                values.append(array)
        return values

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "entry": self.entry,
            "mode": self.mode,
            "seed": self.seed,
            "param_specs": [list(p) for p in self.param_specs],
            "input_values": self.input_values,
            "nargout": self.nargout,
            "returns": list(self.returns),
        }

    @staticmethod
    def from_dict(data: dict) -> "GeneratedProgram":
        return GeneratedProgram(
            source=data["source"], entry=data["entry"], mode=data["mode"],
            seed=int(data.get("seed", 0)),
            param_specs=[tuple(p) for p in data["param_specs"]],
            input_values=data["input_values"],
            nargout=int(data["nargout"]),
            returns=list(data.get("returns", [])),
        )


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------

#: Elementwise single-argument builtins over real data, split by
#: whether every engine computes them bit-identically (no libm).
_EXACT_ELEMWISE = ("abs", "floor", "ceil", "round", "fix", "sign")
_LIBM_ELEMWISE = ("sin", "cos", "atan", "exp")


class ProgramGenerator:
    """Generates one random well-typed program per :meth:`generate`."""

    def __init__(self, seed: int, mode: str = "compile",
                 max_stmts: int = 10):
        if mode not in ("compile", "interp"):
            raise ValueError(f"unknown fuzz mode {mode!r}")
        self.seed = seed
        self.mode = mode
        self.max_stmts = max_stmts
        self.rng = random.Random(seed)
        self.env: dict[str, Info] = {}
        #: Subfunctions available to call from the entry body, and the
        #: subset that has actually been called so far.
        self.subfns: list[SubFunction] = []
        self._called: set[str] = set()
        #: True while a subfunction body is being generated: no nested
        #: user calls (the compiler rejects recursion, and call-in-call
        #: chains add nothing the entry-level calls don't already test).
        self._in_subfn = False
        #: Names that must never be written: parameters (emitted C
        #: passes them as const arrays) and live loop variables /
        #: while counters (reassignment breaks termination).
        self.protected: set[str] = set()
        self._counter = 0
        #: Nesting depth of loop bodies currently being generated.
        #: Inside a loop, ``.^`` exponents are capped at 1 — repeated
        #: squaring across iterations blows magnitudes past the dtype
        #: range and turns every comparison into inf-vs-inf noise.
        self._in_loop = 0

    # -- public ---------------------------------------------------------

    def generate(self) -> GeneratedProgram:
        rng = self.rng
        self.env = {}
        self.protected = set()
        self._counter = 0
        entry = f"fz{self.seed & 0xFFFF}"

        self.subfns = self._gen_subfunctions()
        self._called = set()

        params: list[tuple[str, Info]] = []
        for index in range(rng.randint(1, 3)):
            info = self._random_param_info()
            name = f"p{index}"
            self.env[name] = info
            self.protected.add(name)
            params.append((name, info))

        body: list[ast.Stmt] = []
        # Guarantee at least one derived variable before control flow.
        body.extend(self._gen_new_assign())
        target = rng.randint(3, self.max_stmts)
        guard = 0
        while len(body) < target and guard < 4 * target:
            guard += 1
            stmt = self._gen_stmt(depth=0)
            if stmt is not None:
                body.extend(stmt)
        # Every generated subfunction must be reached at least once, or
        # the differential run would never execute it.
        for sub in self.subfns:
            if sub.name not in self._called:
                body.extend(self._gen_call_to(sub))

        returns = self._pick_returns()
        func = ast.Function(span=_SPAN, name=entry,
                            params=[name for name, _ in params],
                            returns=returns, body=body)
        functions = [func] + [sub.node for sub in self.subfns]
        if self.subfns and rng.random() < 0.5:
            # Exercise entry-by-name selection: the entry function is
            # not always first in the file.
            rng.shuffle(functions)
        program = ast.Program(span=_SPAN, functions=functions)
        source = to_source(program)

        param_specs = [(info.dtype, info.is_complex, info.rows, info.cols)
                       for _, info in params]
        input_values = [self._random_input(info) for _, info in params]
        return GeneratedProgram(
            source=source, entry=entry, mode=self.mode, seed=self.seed,
            param_specs=param_specs, input_values=input_values,
            nargout=len(returns), returns=returns)

    # -- parameters and inputs -----------------------------------------

    def _random_param_info(self) -> Info:
        rng = self.rng
        shape = rng.choice([(1, 1), (1, rng.randint(2, 6)),
                            (rng.randint(2, 5), 1),
                            (rng.randint(2, 4), rng.randint(2, 4))])
        dtype = "single" if rng.random() < 0.15 else "double"
        is_complex = dtype == "double" and rng.random() < 0.15
        return Info(shape[0], shape[1], dtype, is_complex)

    def _quantized(self) -> float:
        """A value exactly representable in both float32 and float64."""
        return self.rng.randint(-128, 128) / 32.0

    def _random_input(self, info: Info) -> object:
        flat = []
        for _ in range(info.numel):
            if info.is_complex:
                flat.append([self._quantized(), self._quantized()])
            else:
                flat.append(self._quantized())
        return flat

    def _pick_returns(self) -> list[str]:
        candidates = [name for name in self.env
                      if not name.startswith("p")] or list(self.env)
        self.rng.shuffle(candidates)
        return sorted(candidates[:self.rng.randint(1, min(3,
                                                          len(candidates)))])

    # -- statements -----------------------------------------------------

    def _fresh(self, prefix: str = "v") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _gen_stmt(self, depth: int) -> "list[ast.Stmt] | None":
        rng = self.rng
        makers = [(4, self._gen_new_assign), (3, self._gen_reassign),
                  (3, self._gen_indexed_store)]
        if depth < 2:
            makers += [(2, self._gen_if), (2, self._gen_for),
                       (1, self._gen_while), (1, self._gen_switch)]
        if self.subfns and not self._in_subfn:
            makers += [(3, self._gen_user_call)]
        if self.mode == "interp":
            makers += [(2, self._gen_growth), (1, self._gen_anon),
                       (1, self._gen_logical_index),
                       (1, self._gen_matrix_iter)]
        total = sum(w for w, _ in makers)
        pick = rng.uniform(0, total)
        for weight, maker in makers:
            pick -= weight
            if pick <= 0:
                return maker() if maker in (self._gen_new_assign,
                                            self._gen_reassign,
                                            self._gen_indexed_store,
                                            self._gen_user_call,
                                            self._gen_growth,
                                            self._gen_anon,
                                            self._gen_logical_index,
                                            self._gen_matrix_iter) \
                    else maker(depth)
        return None

    def _gen_new_assign(self) -> list[ast.Stmt]:
        rng = self.rng
        shape = rng.choice([(1, 1), (1, 1), None])
        if shape is None:
            donors = [i for i in self.env.values() if not i.is_scalar]
            shape = rng.choice(donors).shape if donors else \
                (1, rng.randint(2, 5))
        want_complex = rng.random() < 0.2 and self._has_complex_material()
        expr, info = self._gen_expr(shape, want_complex, depth=0)
        name = self._fresh()
        self.env[name] = info
        return [_assign(_name(name), expr)]

    def _gen_reassign(self) -> "list[ast.Stmt] | None":
        name = self._pick_var(lambda i: True, writable=True)
        if name is None:
            return None
        info = self.env[name]
        expr, new_info = self._gen_matched_expr(info)
        self.env[name] = new_info
        return [_assign(_name(name), expr)]

    def _gen_matched_expr(self, info: Info) -> tuple[ast.Expr, Info]:
        """An expression with exactly ``info``'s shape/dtype/complexness
        (wrapped in a cast when the natural dtype differs).  Matching
        complexness exactly mirrors the compiler's class-stability
        rule: a variable's complexness is fixed at first assignment."""
        expr, got = self._gen_expr(info.shape, info.is_complex, depth=0)
        if got.dtype != info.dtype:
            expr = _call(info.dtype, expr)
            got = Info(got.rows, got.cols, info.dtype, got.is_complex,
                       exact=False)
        if info.is_complex and not got.is_complex:
            expr = _call("complex", expr)
            got = Info(got.rows, got.cols, got.dtype, True, got.exact)
        return expr, got

    def _gen_indexed_store(self) -> "list[ast.Stmt] | None":
        rng = self.rng
        name = self._pick_var(lambda i: not i.is_scalar, writable=True)
        if name is None:
            return None
        info = self.env[name]
        kind = rng.choice(["element", "column", "row"]
                          if info.rows > 1 and info.cols > 1
                          else ["element", "element", "linear"])
        if kind == "element":
            subs = [self._gen_subscript(info.rows),
                    self._gen_subscript(info.cols)] \
                if info.rows > 1 and info.cols > 1 else \
                [self._gen_subscript(info.numel)]
            value, vinfo = self._gen_store_value(info, (1, 1))
        elif kind == "linear":
            subs = [self._gen_subscript(info.numel)]
            value, vinfo = self._gen_store_value(info, (1, 1))
        elif kind == "column":
            subs = [ast.ColonAll(span=_SPAN),
                    self._gen_subscript(info.cols)]
            value, vinfo = self._gen_store_value(info, (info.rows, 1))
        else:
            subs = [self._gen_subscript(info.rows),
                    ast.ColonAll(span=_SPAN)]
            value, vinfo = self._gen_store_value(info, (1, info.cols))
        target = ast.CallIndex(span=_SPAN, target=_name(name), args=subs)
        self.env[name] = Info(info.rows, info.cols, info.dtype,
                              info.is_complex,
                              info.exact and vinfo.exact)
        return [_assign(target, value)]

    def _gen_store_value(self, array: Info,
                         shape: tuple[int, int]) -> tuple[ast.Expr, Info]:
        expr, got = self._gen_expr(shape, array.is_complex, depth=1)
        if got.dtype != array.dtype:
            expr = _call(array.dtype, expr)
            got = Info(got.rows, got.cols, array.dtype, got.is_complex,
                       exact=False)
        if array.is_complex and not got.is_complex:
            expr = _call("complex", expr)
            got = Info(got.rows, got.cols, got.dtype, True, got.exact)
        return expr, got

    def _gen_subscript(self, extent: int) -> ast.Expr:
        """An in-bounds 1-based subscript: constant or end-relative."""
        rng = self.rng
        if rng.random() < 0.25:
            offset = rng.randint(0, extent - 1)
            marker = ast.EndMarker(span=_SPAN)
            return marker if offset == 0 else \
                _bin("-", marker, _num(offset))
        return _num(rng.randint(1, extent))

    # -- control flow ---------------------------------------------------

    def _gen_branch_body(self, depth: int) -> list[ast.Stmt]:
        """Statements safe inside a conditionally-executed region: only
        reassignments of existing variables (types must join across
        branches, and uses after the region must be defined on every
        path)."""
        body: list[ast.Stmt] = []
        for _ in range(self.rng.randint(1, 2)):
            stmt = self._gen_reassign() or self._gen_indexed_store()
            if stmt:
                body.extend(stmt)
        if not body:
            name = self._fresh()
            self.env[name] = Info(1, 1)
            # Define before the region so every path has it: caller
            # prepends this initializer.
            body.append(_assign(_name(name), _num(0)))
        return body

    def _gen_if(self, depth: int) -> list[ast.Stmt]:
        rng = self.rng
        branches = [(self._gen_condition(),
                     self._gen_branch_body(depth + 1))]
        if rng.random() < 0.4:
            branches.append((self._gen_condition(),
                             self._gen_branch_body(depth + 1)))
        else_body = self._gen_branch_body(depth + 1) \
            if rng.random() < 0.6 else []
        return [ast.If(span=_SPAN, branches=branches, else_body=else_body)]

    def _gen_for(self, depth: int) -> list[ast.Stmt]:
        rng = self.rng
        var = self._fresh("k")
        vec = self._pick_var(lambda i: i.is_vector and not i.is_complex,
                             writable=True)
        if vec is not None and rng.random() < 0.5:
            iterable: ast.Expr = ast.Range(
                span=_SPAN, start=_num(1), stop=_call("length", _name(vec)))
        else:
            trip = rng.randint(2, 5)
            iterable = ast.Range(span=_SPAN, start=_num(1), stop=_num(trip))
            vec = None
        self.env[var] = Info(1, 1)
        self.protected.add(var)
        body = self._gen_loop_body(depth + 1, var, vec)
        del self.env[var]
        self.protected.discard(var)
        return [ast.For(span=_SPAN, var=var, iterable=iterable, body=body)]

    def _gen_loop_body(self, depth: int, loop_var: str,
                       indexable: "str | None") -> list[ast.Stmt]:
        rng = self.rng
        self._in_loop += 1
        try:
            return self._gen_loop_body_inner(rng, depth, loop_var,
                                             indexable)
        finally:
            self._in_loop -= 1

    def _gen_loop_body_inner(self, rng, depth: int, loop_var: str,
                             indexable: "str | None") -> list[ast.Stmt]:
        body: list[ast.Stmt] = []
        if indexable is not None and rng.random() < 0.7:
            # v(k) = f(v(k), k, ...): in-bounds by construction because
            # the loop runs 1:length(v).
            info = self.env[indexable]
            element = ast.CallIndex(span=_SPAN, target=_name(indexable),
                                    args=[_name(loop_var)])
            update, uinfo = self._gen_expr((1, 1), info.is_complex,
                                           depth=2, seeds=[
                                               (element, Info(
                                                   1, 1, info.dtype,
                                                   info.is_complex,
                                                   info.exact)),
                                               (_name(loop_var),
                                                Info(1, 1))])
            if uinfo.dtype != info.dtype:
                update = _call(info.dtype, update)
                uinfo.exact = False
            body.append(_assign(
                ast.CallIndex(span=_SPAN, target=_name(indexable),
                              args=[_name(loop_var)]), update))
            self.env[indexable] = Info(info.rows, info.cols, info.dtype,
                                       info.is_complex,
                                       info.exact and uinfo.exact)
        for _ in range(rng.randint(0, 2)):
            stmt = self._gen_reassign()
            if stmt:
                body.extend(stmt)
        if depth < 2 and rng.random() < 0.25:
            escape: ast.Stmt = ast.Break(span=_SPAN) \
                if rng.random() < 0.5 else ast.Continue(span=_SPAN)
            body.append(ast.If(span=_SPAN,
                               branches=[(self._gen_condition(),
                                          [escape])]))
        if not body:
            body.append(self._gen_new_assign()[0])
            # Variables defined only inside a loop body may never be
            # defined at run time; drop it from the env again.
            target = body[-1].target
            self.env.pop(target.name, None)
        return body

    def _gen_while(self, depth: int) -> list[ast.Stmt]:
        rng = self.rng
        counter = self._fresh("it")
        self.env[counter] = Info(1, 1)
        self.protected.add(counter)
        # The bound is either a small constant or length(vec) — shapes
        # are static, so length() is a loop invariant and exact in
        # every engine.
        vec = self._pick_var(lambda i: i.is_vector)
        if vec is not None and rng.random() < 0.4:
            bound: ast.Expr = _call("length", _name(vec))
        else:
            bound = _num(rng.randint(2, 5))
        # Increment FIRST: a generated `continue` later in the body can
        # then never skip it (the classic infinite-while bug).
        body: list[ast.Stmt] = [
            _assign(_name(counter), _bin("+", _name(counter), _num(1)))]
        body.extend(self._gen_loop_body(depth + 1, counter, None))
        self.protected.discard(counter)
        return [
            _assign(_name(counter), _num(0)),
            ast.While(span=_SPAN,
                      condition=_bin("<", _name(counter), bound),
                      body=body),
        ]

    def _gen_switch(self, depth: int) -> list[ast.Stmt]:
        rng = self.rng
        scalar, _ = self._gen_exact_scalar(depth=2)
        subject = _call("floor", scalar)
        cases = [(_num(value), self._gen_branch_body(depth + 1))
                 for value in rng.sample(range(-2, 4), rng.randint(1, 3))]
        otherwise = self._gen_branch_body(depth + 1) \
            if rng.random() < 0.5 else []
        return [ast.Switch(span=_SPAN, subject=subject, cases=cases,
                           otherwise=otherwise)]

    # -- user-defined subfunctions --------------------------------------

    def _gen_subfunctions(self) -> list[SubFunction]:
        rng = self.rng
        roll = rng.random()
        count = 0 if roll < 0.35 else 1 if roll < 0.7 else 2
        return [self._gen_one_subfn(index + 1) for index in range(count)]

    def _gen_one_subfn(self, index: int) -> SubFunction:
        name = f"sf{index}"
        if self.rng.random() < 0.5:
            return self._make_expr_subfn(name)
        return self._make_stmt_subfn(name)

    def _make_expr_subfn(self, name: str) -> SubFunction:
        """A shape-polymorphic elementwise body: two same-shape params
        combined with exact ops (+, -, .*) and quantized constants.
        Call sites choose the argument shape, so two calls with
        different shapes force two type specializations."""
        rng = self.rng
        body = [_assign(_name("r1"),
                        _bin("+", _bin(".*", _name("a"),
                                       _num(self._quantized())),
                             _name("b")))]
        returns = ["r1"]
        if rng.random() < 0.6:
            op = rng.choice(["+", "-", ".*"])
            body.append(_assign(_name("r2"),
                                _bin(op, _name("a"),
                                     _bin(".*", _name("b"),
                                          _num(self._quantized())))))
            returns.append("r2")
        node = ast.Function(span=_SPAN, name=name, params=["a", "b"],
                            returns=returns, body=body)
        return SubFunction(name=name, kind="expr", params=["a", "b"],
                           param_infos=[], returns=returns,
                           return_infos=[], node=node)

    def _make_stmt_subfn(self, name: str) -> SubFunction:
        """A fixed-signature body over the full statement grammar
        (while loops, branches, indexed stores).  Its return-value
        facts are recorded under the assumption that every argument is
        exact; call sites therefore pass exact-only expressions, so
        conditions inside the body that read parameters stay safe."""
        rng = self.rng
        saved_env, saved_prot = self.env, self.protected
        saved_loop = self._in_loop
        self.env, self.protected = {}, set()
        self._in_loop = 0
        self._in_subfn = True
        try:
            params: list[tuple[str, Info]] = []
            for i in range(rng.randint(1, 3)):
                info = self._random_param_info()
                # Double-only parameters: call sites pass exact-only
                # material, and a dtype cast would break exactness.
                info = Info(info.rows, info.cols, "double",
                            info.is_complex)
                pname = f"a{i}"
                self.env[pname] = info
                self.protected.add(pname)
                params.append((pname, info))
            body: list[ast.Stmt] = []
            body.extend(self._gen_new_assign())
            target = rng.randint(2, 6)
            guard = 0
            while len(body) < target and guard < 4 * target:
                guard += 1
                stmt = self._gen_stmt(depth=1)
                if stmt is not None:
                    body.extend(stmt)
            param_names = {pname for pname, _ in params}
            candidates = sorted(n for n in self.env
                                if n not in param_names)
            rng.shuffle(candidates)
            returns = sorted(candidates[:rng.randint(1, min(
                2, len(candidates)))])
            return_infos = [self.env[n] for n in returns]
            node = ast.Function(span=_SPAN, name=name,
                                params=[pname for pname, _ in params],
                                returns=returns, body=body)
            return SubFunction(name=name, kind="stmt",
                               params=[pname for pname, _ in params],
                               param_infos=[info for _, info in params],
                               returns=returns, return_infos=return_infos,
                               node=node)
        finally:
            self.env, self.protected = saved_env, saved_prot
            self._in_loop = saved_loop
            self._in_subfn = False

    def _gen_user_call(self) -> "list[ast.Stmt] | None":
        if not self.subfns:
            return None
        return self._gen_call_to(self.rng.choice(self.subfns))

    def _gen_call_to(self, sub: SubFunction) -> list[ast.Stmt]:
        rng = self.rng
        if sub.kind == "expr":
            args, arg_infos, result_infos = self._expr_call_signature(sub)
        else:
            args, arg_infos = [], []
            for info in sub.param_infos:
                expr, got = self._gen_expr(info.shape, info.is_complex,
                                           depth=1, exact_only=True)
                if not got.exact or got.dtype != "double":
                    # The body's conditions may read this parameter, so
                    # anything short of bit-exact double material is
                    # replaced by a constant of the right shape.
                    expr, got = self._exact_fallback(info)
                args.append(expr)
                arg_infos.append(got)
            result_infos = [
                Info(ret.rows, ret.cols, ret.dtype, ret.is_complex,
                     ret.exact)
                for ret in sub.return_infos]
        call = ast.CallIndex(span=_SPAN, target=_name(sub.name),
                             args=args)
        self._called.add(sub.name)
        if len(sub.returns) == 1 or rng.random() < 0.3:
            # nargout=1: a plain assignment takes the first output only.
            result = self._fresh()
            self.env[result] = result_infos[0]
            return [_assign(_name(result), call)]
        targets: list[ast.Expr] = []
        for index, info in enumerate(result_infos):
            if index > 0 and rng.random() < 0.2:
                targets.append(_name("~"))
                continue
            result = self._fresh()
            self.env[result] = info
            targets.append(_name(result))
        return [ast.MultiAssign(span=_SPAN, targets=targets, value=call)]

    def _exact_fallback(self, info: Info) -> tuple[ast.Expr, Info]:
        """A bit-exact double expression of ``info``'s shape and
        complexness, built from constants only."""
        rows, cols = info.shape
        if info.is_scalar:
            base: ast.Expr = _num(self._quantized())
        else:
            base = _bin(".*", _call("ones", _num(rows), _num(cols)),
                        _num(self._quantized()))
        if info.is_complex:
            base = _call("complex", base, base)
        return base, Info(rows, cols, "double", info.is_complex, True)

    def _expr_call_signature(self, sub: SubFunction):
        """Pick a shape/dtype/complexness for one call to an ``expr``
        subfunction and build matching arguments."""
        rng = self.rng
        donors = [i for i in self.env.values() if not i.is_scalar]
        # A matrix donor also offers its row and column shapes, so that
        # its slices m(k, :) and m(:, k) can become arguments.
        slices = [shape for i in donors if i.rows > 1 and i.cols > 1
                  for shape in ((1, i.cols), (i.rows, 1))]
        shape = rng.choice([(1, 1)] + [i.shape for i in donors] + slices) \
            if donors else rng.choice([(1, 1), (1, rng.randint(2, 5))])
        dtype = "single" if rng.random() < 0.1 else "double"
        args, arg_infos = [], []
        for _ in sub.params:
            cplx = dtype == "double" and rng.random() < 0.2 \
                and self._has_complex_material()
            expr, got = self._gen_expr(shape, cplx, depth=1)
            if got.dtype != dtype:
                expr = _call(dtype, expr)
                got = Info(got.rows, got.cols, dtype, got.is_complex,
                           exact=False)
            args.append(expr)
            arg_infos.append(got)
        rows, cols = shape
        is_complex = any(got.is_complex for got in arg_infos)
        # The body mixes arguments with double constants, so results
        # are exact only for all-exact double arguments.
        exact = all(got.exact for got in arg_infos) and dtype == "double"
        result_infos = [Info(rows, cols, dtype, is_complex, exact)
                        for _ in sub.returns]
        return args, arg_infos, result_infos

    def _gen_condition(self) -> ast.Expr:
        """A scalar condition built only from exact material."""
        rng = self.rng
        left, _ = self._gen_exact_scalar(depth=2)
        right, _ = self._gen_exact_scalar(depth=2)
        op = rng.choice(["<", "<=", ">", ">=", "==", "~="])
        cond = _bin(op, left, right)
        if rng.random() < 0.2:
            left2, _ = self._gen_exact_scalar(depth=2)
            right2, _ = self._gen_exact_scalar(depth=2)
            cond = _bin(rng.choice(["&&", "||"]), cond,
                        _bin(rng.choice(["<", ">"]), left2, right2))
        return cond

    # -- interpreter-only features --------------------------------------

    def _gen_growth(self) -> list[ast.Stmt]:
        """Growth-by-assignment from empty: ``g = []; g(k) = ...``."""
        rng = self.rng
        name = self._fresh("g")
        count = rng.randint(2, 5)
        loop_var = self._fresh("k")
        self.env[loop_var] = Info(1, 1)
        want_complex = rng.random() < 0.3 and self._has_complex_material()
        value, vinfo = self._gen_expr((1, 1), want_complex, depth=2, seeds=[
            (_name(loop_var), Info(1, 1))])
        del self.env[loop_var]
        stmts: list[ast.Stmt] = [
            _assign(_name(name), ast.MatrixLit(span=_SPAN, rows=[])),
            ast.For(span=_SPAN, var=loop_var,
                    iterable=ast.Range(span=_SPAN, start=_num(1),
                                       stop=_num(count)),
                    body=[_assign(
                        ast.CallIndex(span=_SPAN, target=_name(name),
                                      args=[_name(loop_var)]),
                        value)]),
        ]
        self.env[name] = Info(1, count, "double", vinfo.is_complex,
                              vinfo.exact)
        return stmts

    def _gen_anon(self) -> "list[ast.Stmt] | None":
        rng = self.rng
        source = self._pick_var(lambda i: not i.is_complex)
        if source is None:
            return None
        info = self.env[source]
        param = "x"
        body = _bin(rng.choice(["+", ".*"]),
                    _bin(".*", _name(param), _num(self._quantized())),
                    _num(self._quantized()))
        handle = self._fresh("f")
        result = self._fresh()
        self.env[result] = Info(info.rows, info.cols, "double", False,
                                info.exact and info.dtype == "double")
        return [
            _assign(_name(handle),
                    ast.AnonFunc(span=_SPAN, params=[param], body=body)),
            _assign(_name(result), _call(handle, _name(source))),
        ]

    def _gen_logical_index(self) -> "list[ast.Stmt] | None":
        source = self._pick_var(lambda i: i.is_vector and not i.is_complex)
        if source is None:
            return None
        info = self.env[source]
        mask = _bin(self.rng.choice([">", "<", ">="]), _name(source),
                    _num(self._quantized()))
        selected = ast.CallIndex(span=_SPAN, target=_name(source),
                                 args=[mask])
        name = self._fresh()
        self.env[name] = Info(1, 1, info.dtype, False, False)
        return [_assign(_name(name), _call("sum", selected))]

    def _gen_matrix_iter(self) -> "list[ast.Stmt] | None":
        source = self._pick_var(
            lambda i: i.rows > 1 and i.cols > 1 and not i.is_complex)
        if source is None:
            return None
        info = self.env[source]
        acc = self._fresh("s")
        col = self._fresh("c")
        body: list[ast.Stmt] = []
        if self.rng.random() < 0.5:
            # Mutate the loop variable: MATLAB semantics say this must
            # never write back into the iterated matrix.
            body.append(_assign(
                ast.CallIndex(span=_SPAN, target=_name(col),
                              args=[_num(1), _num(1)]),
                _num(self._quantized())))
        body.append(_assign(_name(acc),
                            _bin("+", _name(acc), _call("sum", _name(col)))))
        self.env[acc] = Info(1, 1, info.dtype, False, False)
        return [
            _assign(_name(acc), _num(0)),
            ast.For(span=_SPAN, var=col, iterable=_name(source), body=body),
        ]

    # -- expressions ----------------------------------------------------

    def _has_complex_material(self) -> bool:
        return any(i.is_complex for i in self.env.values()) or True

    def _pick_var(self, want, writable: bool = False) -> "str | None":
        names = [name for name, info in self.env.items() if want(info)
                 and not (writable and name in self.protected)]
        return self.rng.choice(names) if names else None

    def _gen_exact_scalar(self, depth: int) -> tuple[ast.Expr, Info]:
        return self._gen_expr((1, 1), False, depth, exact_only=True)

    def _gen_expr(self, shape: tuple[int, int], want_complex: bool,
                  depth: int, exact_only: bool = False,
                  seeds: "list[tuple[ast.Expr, Info]] | None" = None) \
            -> tuple[ast.Expr, Info]:
        """An expression of exactly ``shape``; complex iff requested.

        ``exact_only`` restricts to bit-identical-across-engines
        material.  ``seeds`` are extra (expr, info) leaves offered to
        the picker (e.g. the current loop variable).
        """
        rng = self.rng
        rows, cols = shape
        scalar = rows == 1 and cols == 1

        if depth >= 3:
            return self._gen_leaf(shape, want_complex, exact_only, seeds)

        choices = ["leaf", "leaf", "binary", "binary"]
        if not want_complex:
            choices.append("elemwise")
        if scalar and not exact_only:
            choices.append("reduction")
        if not scalar and not exact_only and not want_complex:
            choices.append("shape")
        if want_complex:
            choices.append("complex")
        picked = rng.choice(choices)
        if picked == "leaf":
            return self._gen_leaf(shape, want_complex, exact_only, seeds)
        if picked == "binary":
            return self._gen_binary(shape, want_complex, depth,
                                    exact_only, seeds)
        if picked == "complex":
            return self._gen_complex_build(shape, depth)
        if picked == "elemwise":
            return self._gen_elemwise_call(shape, depth, exact_only,
                                           seeds)
        if picked == "reduction":
            return self._gen_reduction(depth, want_complex)
        return self._gen_shape_call(shape, depth)

    def _gen_binary(self, shape, want_complex, depth, exact_only, seeds):
        rng = self.rng
        ops = ["+", "-", ".*"] if want_complex else \
            ["+", "+", "-", ".*", "./", ".^"]
        op = rng.choice(ops)
        scalar_side = rng.random() < 0.4 and shape != (1, 1)
        left, linfo = self._gen_expr(shape, want_complex, depth + 1,
                                     exact_only, seeds)
        right_shape = (1, 1) if scalar_side else shape
        if op == ".^":
            # Integer constant exponent: real stays real, magnitudes
            # bounded, exact in every engine.  Inside loop bodies the
            # cap drops to 1 so iterated reassignment cannot square a
            # value to overflow.
            max_exp = 1 if self._in_loop else 3
            right, rinfo = _num(rng.randint(0, max_exp)), Info(1, 1)
        elif op == "./":
            # Guarded denominator: no engine ever divides by zero.
            denom, dinfo = self._gen_expr(right_shape, False, depth + 1,
                                          exact_only, seeds)
            right = _bin("+", _call("abs", denom), _num(0.5))
            rinfo = Info(dinfo.rows, dinfo.cols, dinfo.dtype, False,
                         dinfo.exact)
        else:
            want_right = want_complex and rng.random() < 0.5
            right, rinfo = self._gen_expr(right_shape, want_right,
                                          depth + 1, exact_only, seeds)
        if op not in ("./", ".^") and rng.random() < 0.5:
            # Commute only when the right operand carries no invariant
            # (guarded denominator, integer exponent).
            left, right = right, left
            linfo, rinfo = rinfo, linfo
        info = linfo.merged(rinfo)
        info.rows, info.cols = shape
        if want_complex and not info.is_complex:
            left = _bin("+", left, ast.ImagLit(span=_SPAN, value=1.0))
            info.is_complex = True
        return _bin(op, left, right), info

    def _gen_elemwise_call(self, shape, depth, exact_only, seeds):
        rng = self.rng
        fns = _EXACT_ELEMWISE if exact_only else \
            _EXACT_ELEMWISE + _LIBM_ELEMWISE
        fn = rng.choice(fns)
        operand, info = self._gen_expr(shape, False, depth + 1,
                                       exact_only, seeds)
        if fn == "exp":
            # Bound the argument so no engine overflows to inf.
            operand = _call("atan", operand)
        result = Info(info.rows, info.cols, info.dtype, False,
                      info.exact and fn in _EXACT_ELEMWISE)
        return _call(fn, operand), result

    def _gen_reduction(self, depth, want_complex=False):
        rng = self.rng
        vec = self._pick_var(
            lambda i: i.is_vector and i.is_complex == want_complex)
        if vec is None:
            expr, sinfo = self._gen_expr((1, rng.randint(2, 4)),
                                         want_complex, depth + 1)
            source: ast.Expr = expr
        else:
            source = _name(vec)
            sinfo = self.env[vec]
        if sinfo.is_complex:
            # norm() of complex is real — it would break the requested
            # complexness; sum is the only closed complex reduction.
            fn = "sum"
        else:
            fn = rng.choice(["sum", "mean", "min", "max", "norm",
                             "prod"])
        info = Info(1, 1, sinfo.dtype, sinfo.is_complex, False)
        return _call(fn, source), info

    def _gen_shape_call(self, shape, depth):
        """Array-shaped builtins: constructors, transpose, reshape..."""
        rng = self.rng
        rows, cols = shape
        options = ["zeros", "ones", "literal", "transpose"]
        if rows == 1 and cols > 1:
            options += ["range", "linspace"]
        # Shape calls are only asked for real results, so a complex
        # donor would hand back a complex value labelled real.
        donors = [n for n, i in self.env.items()
                  if i.numel == rows * cols and i.shape != shape
                  and not i.is_complex]
        if donors:
            options.append("reshape")
        picked = rng.choice(options)
        if picked in ("zeros", "ones"):
            return (_call(picked, _num(rows), _num(cols)),
                    Info(rows, cols))
        if picked == "range":
            start = rng.randint(-3, 3)
            return (ast.Range(span=_SPAN, start=_num(start),
                              stop=_num(start + cols - 1)),
                    Info(rows, cols))
        if picked == "linspace":
            return (_call("linspace", _num(self._quantized()),
                          _num(self._quantized()), _num(cols)),
                    Info(rows, cols, exact=False))
        if picked == "reshape":
            donor = rng.choice(donors)
            dinfo = self.env[donor]
            return (_call("reshape", _name(donor), _num(rows), _num(cols)),
                    Info(rows, cols, dinfo.dtype, dinfo.is_complex,
                         dinfo.exact))
        if picked == "transpose":
            inner, info = self._gen_expr((cols, rows), False, depth + 1)
            return (ast.Transpose(span=_SPAN, operand=inner,
                                  conjugate=False),
                    Info(rows, cols, info.dtype, info.is_complex,
                         info.exact))
        elements = [[self._gen_expr((1, 1), False, depth + 2)
                     for _ in range(cols)] for _ in range(rows)]
        exact = all(info.exact and info.dtype == "double"
                    for row in elements for _, info in row)
        lit = ast.MatrixLit(span=_SPAN,
                            rows=[[expr for expr, _ in row]
                                  for row in elements])
        return lit, Info(rows, cols, "double", False, exact)

    def _gen_complex_build(self, shape, depth):
        rng = self.rng
        real, rinfo = self._gen_expr(shape, False, depth + 1)
        if rng.random() < 0.5:
            imag, iinfo = self._gen_expr(shape, False, depth + 1)
            return (_call("complex", real, imag),
                    Info(shape[0], shape[1], "double", True,
                         rinfo.exact and iinfo.exact
                         and rinfo.dtype == "double"
                         and iinfo.dtype == "double"))
        scale = ast.ImagLit(span=_SPAN, value=self._quantized())
        return (_bin("+", real, _bin(".*",
                                     self._gen_expr(shape, False,
                                                    depth + 1)[0], scale)),
                Info(shape[0], shape[1], "double", True, False))

    def _gen_leaf(self, shape, want_complex, exact_only, seeds=None):
        rng = self.rng
        rows, cols = shape
        scalar = rows == 1 and cols == 1

        candidates: list[tuple[ast.Expr, Info]] = []
        if seeds:
            candidates.extend(
                (expr, info) for expr, info in seeds
                if info.shape == shape
                and info.is_complex == want_complex
                and (not exact_only or info.exact))

        def usable(info: Info) -> bool:
            if info.is_complex != want_complex:
                return False
            if exact_only and not info.exact:
                return False
            return True

        for name, info in self.env.items():
            if not usable(info):
                continue
            if info.shape == shape:
                candidates.append((_name(name), info))
            if scalar and not info.is_scalar:
                index_args = [self._gen_subscript(info.rows),
                              self._gen_subscript(info.cols)] \
                    if info.rows > 1 and info.cols > 1 else \
                    [self._gen_subscript(info.numel)]
                candidates.append((
                    ast.CallIndex(span=_SPAN, target=_name(name),
                                  args=index_args),
                    Info(1, 1, info.dtype, info.is_complex, info.exact)))
            if rows == 1 and cols > 1 and info.cols > cols \
                    and info.rows == 1:
                start = rng.randint(1, info.cols - cols + 1)
                slice_expr = ast.CallIndex(
                    span=_SPAN, target=_name(name),
                    args=[ast.Range(span=_SPAN, start=_num(start),
                                    stop=_num(start + cols - 1))])
                candidates.append((
                    slice_expr,
                    Info(1, cols, info.dtype, info.is_complex,
                         info.exact)))
            if info.rows > 1 and info.cols > 1 and \
                    shape in ((1, info.cols), (info.rows, 1)):
                # A whole row m(k, :) or column m(:, k) of a matrix.
                colon = ast.ColonAll(span=_SPAN)
                subs = [self._gen_subscript(info.rows), colon] \
                    if rows == 1 else [colon, self._gen_subscript(info.cols)]
                candidates.append((
                    ast.CallIndex(span=_SPAN, target=_name(name),
                                  args=subs),
                    Info(rows, cols, info.dtype, info.is_complex,
                         info.exact)))

        if scalar and not want_complex:
            for _ in range(2):
                candidates.append((_num(self._quantized()), Info(1, 1)))
            for name in ("length", "numel"):
                if self.env and rng.random() < 0.3:
                    donor = rng.choice(list(self.env))
                    candidates.append((_call(name, _name(donor)),
                                       Info(1, 1)))
        if scalar and want_complex:
            candidates.append((
                _bin("+", _num(self._quantized()),
                     ast.ImagLit(span=_SPAN, value=self._quantized())),
                Info(1, 1, "double", True)))

        if not candidates:
            # Synthesize from nothing: zeros/complex zeros of the shape.
            base = _call("zeros", _num(rows), _num(cols)) \
                if not scalar else _num(self._quantized())
            info = Info(rows, cols)
            if want_complex:
                base = _call("complex", base, base)
                info = Info(rows, cols, "double", True)
            return base, info
        return rng.choice(candidates)
