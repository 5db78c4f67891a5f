"""Builtin-function signature registry.

Each supported MATLAB builtin is described by a :class:`Builtin` record:
its arity, a *lowering kind* consumed by the IR builder, and an ``infer``
callback computing result types (with compile-time constants where
derivable, e.g. ``length(x)`` of a concretely shaped ``x``).

The inference context passed to the callbacks only needs an
``error(message, span)`` method; the real one is the type inferencer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.frontend import ast_nodes as ast
from repro.semantics.shapes import SCALAR, Shape
from repro.semantics.types import DType, MType, dtype_from_name, promote_binary

InferFn = Callable[[list[MType], ast.CallIndex, object], list[MType]]


@dataclass(frozen=True)
class Builtin:
    """Signature and lowering metadata of one builtin."""

    name: str
    min_args: int
    max_args: int
    kind: str  # lowering strategy tag (see repro.ir.builder)
    infer: InferFn
    nargout: int = 1


REGISTRY: dict[str, Builtin] = {}


def register(name: str, min_args: int, max_args: int, kind: str, nargout: int = 1):
    """Decorator registering a builtin's inference rule."""

    def wrap(fn: InferFn) -> InferFn:
        REGISTRY[name] = Builtin(name, min_args, max_args, kind, fn, nargout)
        return fn

    return wrap


def lookup(name: str) -> Builtin | None:
    return REGISTRY.get(name)


def is_builtin(name: str) -> bool:
    return name in REGISTRY


# ----------------------------------------------------------------------
# Constants (zero-argument "functions" usable without parentheses)
# ----------------------------------------------------------------------

CONSTANTS: dict[str, MType] = {
    "pi": MType.double(math.pi),
    "eps": MType.double(2.220446049250313e-16),
    "Inf": MType.double(math.inf),
    "inf": MType.double(math.inf),
    "NaN": MType.double(math.nan),
    "nan": MType.double(math.nan),
    "true": MType.logical(True),
    "false": MType.logical(False),
    "i": MType.scalar(DType.DOUBLE, is_complex=True, value=1j),
    "j": MType.scalar(DType.DOUBLE, is_complex=True, value=1j),
    "1i": MType.scalar(DType.DOUBLE, is_complex=True, value=1j),
}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _const_dim(t: MType) -> int | None:
    """Extract a non-negative int dimension from a constant scalar type."""
    if t.value is None or isinstance(t.value, complex):
        return None
    try:
        value = float(t.value)
    except (TypeError, ValueError):
        return None
    if value < 0 or value != int(value):
        return None
    return int(value)


def _constructor_shape(args: list[MType]) -> Shape:
    """Shape rules shared by zeros/ones/rand: (), (n) -> n x n, (m, n)."""
    if not args:
        return SCALAR
    if len(args) == 1:
        n = _const_dim(args[0])
        return Shape(n, n)
    return Shape(_const_dim(args[0]), _const_dim(args[1]))


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------


@register("zeros", 0, 2, "constructor")
def _infer_zeros(args, call, ctx):
    return [MType(DType.DOUBLE, False, _constructor_shape(args))]


@register("ones", 0, 2, "constructor")
def _infer_ones(args, call, ctx):
    return [MType(DType.DOUBLE, False, _constructor_shape(args))]


@register("eye", 0, 2, "constructor")
def _infer_eye(args, call, ctx):
    return [MType(DType.DOUBLE, False, _constructor_shape(args))]


@register("linspace", 2, 3, "constructor")
def _infer_linspace(args, call, ctx):
    n = 100 if len(args) < 3 else _const_dim(args[2])
    return [MType(DType.DOUBLE, False, Shape(1, n))]


@register("complex", 1, 2, "elemwise")
def _infer_complex(args, call, ctx):
    shape = args[0].shape
    if len(args) == 2:
        if args[0].is_complex or args[1].is_complex:
            ctx.error("complex(): with two arguments, both inputs must "
                      "be real", call.span)
        combined = shape.elementwise(args[1].shape)
        if combined is None:
            ctx.error(
                f"complex(): shapes {args[0].shape.describe()} and "
                f"{args[1].shape.describe()} do not conform", call.span)
            combined = shape
        shape = combined
    dtype = args[0].dtype if len(args) == 1 else args[0].dtype.join(args[1].dtype)
    return [MType(dtype if dtype.is_float else DType.DOUBLE, True, shape)]


# ----------------------------------------------------------------------
# Shape queries (resolved at compile time whenever shapes are concrete)
# ----------------------------------------------------------------------


@register("length", 1, 1, "query")
def _infer_length(args, call, ctx):
    return [MType.double(None if (n := args[0].shape.length()) is None else float(n))]


@register("numel", 1, 1, "query")
def _infer_numel(args, call, ctx):
    return [MType.double(None if (n := args[0].shape.numel()) is None else float(n))]


@register("size", 1, 2, "query", nargout=2)
def _infer_size(args, call, ctx):
    shape = args[0].shape
    if len(args) == 2:
        d = _const_dim(args[1])
        if d is None:
            ctx.error("size(x, d): dimension must be a compile-time constant", call.span)
            return [MType.double()]
        dim = shape.dim(d)
        return [MType.double(None if dim is None else float(dim))]
    rows = MType.double(None if shape.rows is None else float(shape.rows))
    cols = MType.double(None if shape.cols is None else float(shape.cols))
    return [rows, cols]


@register("isreal", 1, 1, "query")
def _infer_isreal(args, call, ctx):
    return [MType.logical(not args[0].is_complex)]


@register("isempty", 1, 1, "query")
def _infer_isempty(args, call, ctx):
    n = args[0].shape.numel()
    return [MType.logical(None if n is None else n == 0)]


# ----------------------------------------------------------------------
# Element-wise math
# ----------------------------------------------------------------------


#: Compile-time evaluation of element-wise builtins on constant scalars
#: (keeps sizes like floor(n/2) statically known).
_CONST_FOLDERS = {
    "abs": abs,
    "floor": lambda v: float(math.floor(v)),
    "ceil": lambda v: float(math.ceil(v)),
    "round": lambda v: float(math.floor(v + 0.5)) if v >= 0
    else float(math.ceil(v - 0.5)),
    "fix": lambda v: float(math.trunc(v)),
    "sign": lambda v: float((v > 0) - (v < 0)),
    "sqrt": lambda v: math.sqrt(v) if v >= 0 else None,
    "exp": math.exp,
    "log": lambda v: math.log(v) if v > 0 else None,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "atan": math.atan,
    "real": lambda v: v,
    "conj": lambda v: v,
    "imag": lambda v: 0.0,
}


def _fold_const(fn_name: str, arg: MType):
    folder = _CONST_FOLDERS.get(fn_name)
    if folder is None or arg.value is None or \
            isinstance(arg.value, (complex, str)):
        return None
    try:
        return folder(float(arg.value))
    except (TypeError, ValueError, OverflowError):
        return None


def _elemwise_real(fn_name: str, complex_ok: bool = True):
    def infer(args, call, ctx):
        arg = args[0]
        if arg.is_complex and not complex_ok:
            ctx.error(f"{fn_name}() does not accept complex input", call.span)
        dtype = arg.dtype if arg.dtype.is_float else DType.DOUBLE
        return [MType(dtype, False, arg.shape, _fold_const(fn_name, arg))]

    return infer


def _elemwise_keep(fn_name: str):
    def infer(args, call, ctx):
        arg = args[0]
        dtype = arg.dtype if arg.dtype.is_float else DType.DOUBLE
        value = None if arg.is_complex else _fold_const(fn_name, arg)
        return [MType(dtype, arg.is_complex, arg.shape, value)]

    return infer


register("abs", 1, 1, "elemwise")(_elemwise_real("abs"))
register("real", 1, 1, "elemwise")(_elemwise_real("real"))
register("imag", 1, 1, "elemwise")(_elemwise_real("imag"))
register("angle", 1, 1, "elemwise")(_elemwise_real("angle"))
register("conj", 1, 1, "elemwise")(_elemwise_keep("conj"))
register("exp", 1, 1, "elemwise")(_elemwise_keep("exp"))
register("log", 1, 1, "elemwise")(_elemwise_keep("log"))
register("sin", 1, 1, "elemwise")(_elemwise_keep("sin"))
register("cos", 1, 1, "elemwise")(_elemwise_keep("cos"))
register("tan", 1, 1, "elemwise")(_elemwise_keep("tan"))
register("atan", 1, 1, "elemwise")(_elemwise_keep("atan"))
register("floor", 1, 1, "elemwise")(_elemwise_real("floor", complex_ok=False))
register("ceil", 1, 1, "elemwise")(_elemwise_real("ceil", complex_ok=False))
register("round", 1, 1, "elemwise")(_elemwise_real("round", complex_ok=False))
register("fix", 1, 1, "elemwise")(_elemwise_real("fix", complex_ok=False))
register("sign", 1, 1, "elemwise")(_elemwise_real("sign", complex_ok=False))


@register("sqrt", 1, 1, "elemwise")
def _infer_sqrt(args, call, ctx):
    arg = args[0]
    dtype = arg.dtype if arg.dtype.is_float else DType.DOUBLE
    # sqrt of a (possibly negative) real stays real in this subset;
    # a negative-argument sqrt is a user error the interpreter flags.
    return [MType(dtype, arg.is_complex, arg.shape)]


def _binary_elemwise(fn_name: str):
    def infer(args, call, ctx):
        a, b = args
        shape = a.shape.elementwise(b.shape)
        if shape is None:
            ctx.error(
                f"{fn_name}(): shapes {a.shape.describe()} and "
                f"{b.shape.describe()} do not conform", call.span)
            shape = a.shape
        dtype, is_complex = promote_binary(a, b)
        return [MType(dtype, is_complex, shape)]

    return infer


register("mod", 2, 2, "binary_elemwise")(_binary_elemwise("mod"))
register("rem", 2, 2, "binary_elemwise")(_binary_elemwise("rem"))
register("atan2", 2, 2, "binary_elemwise")(_binary_elemwise("atan2"))
register("hypot", 2, 2, "binary_elemwise")(_binary_elemwise("hypot"))
register("power", 2, 2, "binary_elemwise")(_binary_elemwise("power"))


# ----------------------------------------------------------------------
# Class casts
# ----------------------------------------------------------------------


def _cast(to_name: str):
    dtype = dtype_from_name(to_name)

    def infer(args, call, ctx):
        arg = args[0]
        return [MType(dtype, arg.is_complex and dtype.is_float, arg.shape)]

    return infer


for _name in ("double", "single", "int8", "int16", "int32", "logical"):
    register(_name, 1, 1, "cast")(_cast(_name))


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------


def _reduction_shape(shape: Shape, dim: int | None) -> Shape:
    """Shape of sum/prod/mean along ``dim`` (MATLAB default-dim rules)."""
    if dim is None:
        dim = 1 if not shape.is_row and not shape.is_scalar else 2
        if shape.is_vector:
            return SCALAR
    if dim == 1:
        return Shape(1, shape.cols)
    return Shape(shape.rows, 1)


def _reduce(fn_name: str):
    def infer(args, call, ctx):
        arg = args[0]
        dim = _const_dim(args[1]) if len(args) == 2 else None
        if len(args) == 2 and dim is None:
            ctx.error(f"{fn_name}(x, dim): dim must be a compile-time constant",
                      call.span)
            dim = 1
        dtype = arg.dtype if arg.dtype.is_float else DType.DOUBLE
        return [MType(dtype, arg.is_complex, _reduction_shape(arg.shape, dim))]

    return infer


register("sum", 1, 2, "reduction")(_reduce("sum"))
register("prod", 1, 2, "reduction")(_reduce("prod"))
register("mean", 1, 2, "reduction")(_reduce("mean"))


@register("min", 1, 2, "minmax", nargout=2)
def _infer_min(args, call, ctx):
    return _minmax(args, call, ctx, "min")


@register("max", 1, 2, "minmax", nargout=2)
def _infer_max(args, call, ctx):
    return _minmax(args, call, ctx, "max")


def _minmax(args, call, ctx, fn_name):
    if len(args) == 2:
        # Element-wise two-argument form.
        a, b = args
        shape = a.shape.elementwise(b.shape)
        if shape is None:
            ctx.error(
                f"{fn_name}(): shapes {a.shape.describe()} and "
                f"{b.shape.describe()} do not conform", call.span)
            shape = a.shape
        dtype, _ = promote_binary(a, b)
        if a.is_complex or b.is_complex:
            ctx.error(f"{fn_name}() on complex values is not supported", call.span)
        return [MType(dtype, False, shape)]
    arg = args[0]
    if arg.is_complex:
        ctx.error(f"{fn_name}() on complex values is not supported", call.span)
    dtype = arg.dtype if arg.dtype.is_float else DType.DOUBLE
    value = MType(dtype, False, _reduction_shape(arg.shape, None))
    index = MType(DType.DOUBLE, False, value.shape)
    return [value, index]


@register("norm", 1, 1, "norm")
def _infer_norm(args, call, ctx):
    a = args[0]
    if not a.is_vector:
        ctx.error("norm() supports vectors only in this subset", call.span)
    dtype = a.dtype if a.dtype.is_float else DType.DOUBLE
    return [MType(dtype, False, SCALAR)]


def _infer_var_like(fn_name):
    def infer(args, call, ctx):
        a = args[0]
        if not a.is_vector:
            ctx.error(f"{fn_name}() supports vectors only in this subset",
                      call.span)
        if a.is_complex:
            ctx.error(f"{fn_name}() on complex values is not supported",
                      call.span)
        dtype = a.dtype if a.dtype.is_float else DType.DOUBLE
        return [MType(dtype, False, SCALAR)]

    return infer


register("var", 1, 1, "var")(_infer_var_like("var"))
register("std", 1, 1, "std")(_infer_var_like("std"))


def _infer_any_all(fn_name):
    def infer(args, call, ctx):
        a = args[0]
        if not a.is_vector:
            ctx.error(f"{fn_name}() supports vectors only in this subset",
                      call.span)
        return [MType(DType.LOGICAL, False, SCALAR)]

    return infer


register("any", 1, 1, "any")(_infer_any_all("any"))
register("all", 1, 1, "all")(_infer_any_all("all"))


@register("cumsum", 1, 1, "cumsum")
def _infer_cumsum(args, call, ctx):
    a = args[0]
    if not a.is_vector:
        ctx.error("cumsum() supports vectors only in this subset",
                  call.span)
    dtype = a.dtype if a.dtype.is_float else DType.DOUBLE
    return [MType(dtype, a.is_complex, a.shape)]


@register("sort", 1, 1, "sort")
def _infer_sort(args, call, ctx):
    a = args[0]
    if not a.is_vector:
        ctx.error("sort() supports vectors only in this subset", call.span)
    if a.is_complex:
        ctx.error("sort() on complex values is not supported", call.span)
    dtype = a.dtype if a.dtype.is_float else DType.DOUBLE
    return [MType(dtype, False, a.shape)]


@register("dot", 2, 2, "dot")
def _infer_dot(args, call, ctx):
    a, b = args
    if not (a.is_vector and b.is_vector):
        ctx.error("dot() requires vector arguments", call.span)
    la, lb = a.shape.numel(), b.shape.numel()
    if la is not None and lb is not None and la != lb:
        ctx.error(f"dot(): vector lengths {la} and {lb} differ", call.span)
    dtype, is_complex = promote_binary(a, b)
    return [MType(dtype, is_complex, SCALAR)]


# ----------------------------------------------------------------------
# Matrix manipulation
# ----------------------------------------------------------------------


@register("transpose", 1, 1, "transpose")
def _infer_transpose(args, call, ctx):
    return [args[0].with_shape(args[0].shape.transpose())]


@register("ctranspose", 1, 1, "ctranspose")
def _infer_ctranspose(args, call, ctx):
    return [args[0].with_shape(args[0].shape.transpose())]


@register("reshape", 3, 3, "reshape")
def _infer_reshape(args, call, ctx):
    arg = args[0]
    rows, cols = _const_dim(args[1]), _const_dim(args[2])
    if rows is None or cols is None:
        ctx.error("reshape(): target dims must be compile-time constants", call.span)
        return [arg.with_shape(Shape(None, None))]
    n = arg.shape.numel()
    if n is not None and n != rows * cols:
        ctx.error(f"reshape(): cannot reshape {arg.shape.describe()} "
                  f"({n} elements) to [{rows}x{cols}]", call.span)
    return [arg.with_shape(Shape(rows, cols))]


@register("fliplr", 1, 1, "flip")
def _infer_fliplr(args, call, ctx):
    return [args[0].without_value()]


@register("flipud", 1, 1, "flip")
def _infer_flipud(args, call, ctx):
    return [args[0].without_value()]


# ----------------------------------------------------------------------
# DSP kernels
# ----------------------------------------------------------------------


@register("filter", 3, 3, "filter")
def _infer_filter(args, call, ctx):
    b, a, x = args
    if not (b.is_vector and a.is_vector):
        ctx.error("filter(): coefficient arguments must be vectors", call.span)
    dtype = x.dtype if x.dtype.is_float else DType.DOUBLE
    is_complex = b.is_complex or a.is_complex or x.is_complex
    return [MType(dtype, is_complex, x.shape)]


@register("conv", 2, 2, "conv")
def _infer_conv(args, call, ctx):
    a, b = args
    if not (a.is_vector and b.is_vector):
        ctx.error("conv(): arguments must be vectors", call.span)
    la, lb = a.shape.numel(), b.shape.numel()
    n = None if la is None or lb is None else max(la + lb - 1, 0)
    dtype, is_complex = promote_binary(a, b)
    # Result is a column only when both inputs are columns.
    if a.shape.is_col and b.shape.is_col and not a.is_scalar and not b.is_scalar:
        shape = Shape(n, 1)
    else:
        shape = Shape(1, n)
    return [MType(dtype if dtype.is_float else DType.DOUBLE, is_complex, shape)]


@register("fft", 1, 2, "fft")
def _infer_fft(args, call, ctx):
    return [_fft_type(args, call, ctx, "fft")]


@register("ifft", 1, 2, "fft")
def _infer_ifft(args, call, ctx):
    return [_fft_type(args, call, ctx, "ifft")]


def _fft_type(args, call, ctx, fn_name):
    arg = args[0]
    if not arg.is_vector:
        ctx.error(f"{fn_name}() supports vectors only in this subset", call.span)
    shape = arg.shape
    if len(args) == 2:
        n = _const_dim(args[1])
        if n is None:
            ctx.error(f"{fn_name}(x, n): n must be a compile-time constant", call.span)
        shape = Shape(1, n) if shape.is_row else Shape(n, 1)
    n = shape.numel()
    if n is not None and n > 1 and n & (n - 1):
        ctx.error(f"{fn_name}(): length {n} is not a power of two "
                  "(radix-2 implementation)", call.span)
    dtype = arg.dtype if arg.dtype.is_float else DType.DOUBLE
    return MType(dtype, True, shape)


# ----------------------------------------------------------------------
# I/O (side effects only)
# ----------------------------------------------------------------------


@register("disp", 1, 1, "io", nargout=0)
def _infer_disp(args, call, ctx):
    return []


@register("fprintf", 1, 16, "io", nargout=0)
def _infer_fprintf(args, call, ctx):
    return []


@register("error", 1, 16, "io", nargout=0)
def _infer_error(args, call, ctx):
    return []
