"""The custom-instruction operations: one record per operation tag.

An :class:`~repro.asip.model.Instruction` names its operation by tag;
the :class:`Operation` record under that tag is everything the compiler
knows about it:

* its C function shape and parameter names, and its portable C fallback
  as one expression for real and one for complex elements — the
  element kinds with an expression are the kinds the operation is
  defined on (:mod:`repro.asip.header_gen` prints the functions);
* its lane shape: every shape but ``scalar`` needs lanes > 1, a
  ``scalar`` operation exactly one lane;
* whether its result is real over complex operands (``cmag2``);
* the cycle simulator's Python code over its operands' codes, and which
  operands may read as scalar splats (:mod:`repro.sim.compiled`).

The records are plain literals: importing this module renders nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.types import ScalarKind


@dataclass(frozen=True)
class Operation:
    """One operation tag and its meaning.

    Attributes:
        tag: the operation tag instructions name it by.
        shape: the C function shape — ``load``, ``store``, ``splat``,
            ``lanewise``, ``reduce`` or ``scalar``.
        params: the C fallback's parameter names, one per operand (so
            their count is the arity).
        c_real: the C fallback's expression over real elements (None
            when the operation is not defined on them), written over
            the parameters: ``a.v[i]`` is lane ``i`` of vector ``a``,
            ``r`` a reduction's running value; a dict keyed by element
            kind, with a ``None`` default, where kinds differ.
        c_complex: the same over complex elements.  ``{elem}`` stands
            for the element's C type, ``{lanes}`` for the lane count.
        sim: the simulator's Python code over the operands' codes
            ``{0}``, ``{1}``...; None where the simulator builds the
            operation itself (loads, stores and splats).
        splats: per operand, the operands one of which must be a vector
            for that operand to read as a dtype scalar when it is a
            splat (every numpy operation keeps one array operand).
        real_result: the result is the real component kind (``cmag2``).
    """

    tag: str
    shape: str
    params: tuple[str, ...]
    c_real: "str | dict | None"
    c_complex: str | None
    sim: str | None = None
    splats: tuple[tuple[int, ...], ...] = ()
    real_result: bool = False

    def c_expr(self, elem: ScalarKind) -> str | None:
        """The fallback's expression over ``elem`` elements, if any."""
        expr = self.c_complex if elem.is_complex else self.c_real
        if isinstance(expr, dict):
            return expr.get(elem, expr[None])
        return expr

    def result_kind(self, elem: ScalarKind) -> ScalarKind:
        return elem.real_kind if self.real_result else elem


#: A binary operand may read as a scalar while the other is a vector.
BINARY_SPLATS = ((1,), (0,))

_AB = ("a", "b")
_XAB = ("x", "a", "b")

OPERATIONS: dict[str, Operation] = {op.tag: op for op in (
    Operation("vload", "load", ("p",), "p[i]", "p[i]"),
    Operation("vloadr", "load", ("p",), "p[{lanes} - 1 - i]",
              "p[{lanes} - 1 - i]"),
    Operation("vstore", "store", ("p", "a"), "a.v[i]", "a.v[i]"),
    Operation("vsplat", "splat", ("x",), "x", "x"),
    Operation("vadd", "lanewise", _AB, "a.v[i] + b.v[i]",
              "{elem}_add(a.v[i], b.v[i])", "({0} + {1})", BINARY_SPLATS),
    Operation("vsub", "lanewise", _AB, "a.v[i] - b.v[i]",
              "{elem}_sub(a.v[i], b.v[i])", "({0} - {1})", BINARY_SPLATS),
    Operation("vmul", "lanewise", _AB, "a.v[i] * b.v[i]",
              "{elem}_mul(a.v[i], b.v[i])", "({0} * {1})", BINARY_SPLATS),
    Operation("vdiv", "lanewise", _AB, "a.v[i] / b.v[i]",
              "{elem}_div(a.v[i], b.v[i])", "({0} / {1})", BINARY_SPLATS),
    Operation("vmin", "lanewise", _AB, "a.v[i] < b.v[i] ? a.v[i] : b.v[i]",
              None, "_npmin({0}, {1})", BINARY_SPLATS),
    Operation("vmax", "lanewise", _AB, "a.v[i] > b.v[i] ? a.v[i] : b.v[i]",
              None, "_npmax({0}, {1})", BINARY_SPLATS),
    Operation("vmac", "lanewise", ("acc", "a", "b"),
              "acc.v[i] + a.v[i] * b.v[i]",
              "{elem}_add(acc.v[i], {elem}_mul(a.v[i], b.v[i]))",
              "({0} + {1} * {2})", ((1, 2), (2,), (1,))),
    Operation("vneg", "lanewise", ("a",), "-(a.v[i])",
              "{elem}_neg(a.v[i])", "(-{0})"),
    Operation("vabs", "lanewise", ("a",), {
        ScalarKind.F64: "fabs(a.v[i])",
        ScalarKind.F32: "(float)fabs((double)a.v[i])",
        None: "a.v[i] < 0 ? -a.v[i] : a.v[i]"}, None, "_npabs({0})"),
    Operation("vconj", "lanewise", ("a",), None, "{elem}_conj(a.v[i])",
              "_npconj({0})"),
    Operation("vredadd", "reduce", ("a",), "r + a.v[i]",
              "{elem}_add(r, a.v[i])", "_fromnp(_npsum({0}))"),
    Operation("vredmin", "reduce", ("a",), "a.v[i] < r ? a.v[i] : r", None,
              "_fromnp(_npamin({0}))"),
    Operation("vredmax", "reduce", ("a",), "a.v[i] > r ? a.v[i] : r", None,
              "_fromnp(_npamax({0}))"),
    Operation("cadd", "scalar", _AB, None, "{elem}_add(a, b)",
              "({0} + {1})"),
    Operation("csub", "scalar", _AB, None, "{elem}_sub(a, b)",
              "({0} - {1})"),
    Operation("cmul", "scalar", _AB, None, "{elem}_mul(a, b)",
              "({0} * {1})"),
    Operation("cmac", "scalar", _XAB, None, "{elem}_add(x, {elem}_mul(a, b))",
              "({0} + {1} * {2})"),
    Operation("cconj", "scalar", ("a",), None, "{elem}_conj(a)",
              "({0}).conjugate()"),
    Operation("cmag2", "scalar", ("a",), None, "a.re * a.re + a.im * a.im",
              "_cmag2({0})", real_result=True),
    Operation("mac", "scalar", _XAB, "x + a * b", None, "({0} + {1} * {2})"),
    Operation("clip", "scalar", ("x", "lo", "hi"),
              "x < lo ? lo : (x > hi ? hi : x)", None,
              "min(max({0}, {1}), {2})"),
)}
