"""Numpy-backed MATLAB builtins for the golden interpreter.

These implement MATLAB semantics (column-major linearization, scalar
expansion, default reduction dimensions, round-half-away-from-zero, ...)
directly over numpy — independent of the compiler's IR lowering, so a
disagreement between interpreter and simulator genuinely localizes a
compiler bug.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import InterpreterError
from repro.mlab.values import scalar_of, to_value
from repro.numeric import range_count

_CONSTANTS = {
    "pi": math.pi,
    "eps": np.finfo(np.float64).eps,
    "Inf": math.inf,
    "inf": math.inf,
    "NaN": math.nan,
    "nan": math.nan,
    "i": 1j,
    "j": 1j,
    "true": True,
    "false": False,
}


def constant(name: str):
    value = _CONSTANTS.get(name)
    if value is None:
        return None
    return to_value(value)


def char_to_double(text: str) -> np.ndarray:
    return np.array([[float(ord(c)) for c in text]])


def colon(start: float, step: float, stop: float) -> np.ndarray:
    """MATLAB colon operator with its inclusive-stop fencepost rule.

    The fencepost tolerance is the magnitude-relative rule shared with
    the compile-time shape inferencer (:mod:`repro.numeric`), so the
    interpreter and compiled code always agree on range lengths.
    """
    try:
        count = range_count(start, step, stop)
    except OverflowError:
        raise InterpreterError(
            "range with infinite bounds has no element count") from None
    if count <= 0:
        return np.zeros((1, 0))
    return (start + step * np.arange(count, dtype=np.float64)).reshape(1, -1)


# ----------------------------------------------------------------------
# Binary operators
# ----------------------------------------------------------------------


def _conform(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.size == 1 or b.size == 1:
        return
    if a.shape != b.shape:
        raise InterpreterError(
            f"operator {op!r}: nonconformant operands "
            f"{a.shape[0]}x{a.shape[1]} and {b.shape[0]}x{b.shape[1]}")


def binary_op(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if op in ("+", "-", ".*", "./", ".\\", ".^", "==", "~=", "<", "<=",
              ">", ">=", "&", "|"):
        _conform(op, a, b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == ".*":
        return a * b
    if op == "./":
        return _divide(a, b)
    if op == ".\\":
        return _divide(b, a)
    if op == ".^":
        return _power(a, b)
    if op == "*":
        if a.size == 1 or b.size == 1:
            return a * b
        if a.shape[1] != b.shape[0]:
            raise InterpreterError(
                f"matrix product: inner dimensions {a.shape[1]} and "
                f"{b.shape[0]} disagree")
        return a @ b
    if op == "/":
        if b.size == 1:
            return _divide(a, b)
        raise InterpreterError("matrix right-division is not supported")
    if op == "\\":
        if a.size == 1:
            return _divide(b, a)
        raise InterpreterError("matrix left-division is not supported")
    if op == "^":
        if a.size == 1 and b.size == 1:
            return _power(a, b)
        raise InterpreterError("matrix power is not supported")
    if op == "==":
        return a == b
    if op == "~=":
        return a != b
    if op == "<":
        return _real_compare(np.less, a, b)
    if op == "<=":
        return _real_compare(np.less_equal, a, b)
    if op == ">":
        return _real_compare(np.greater, a, b)
    if op == ">=":
        return _real_compare(np.greater_equal, a, b)
    if op == "&":
        return (a != 0) & (b != 0)
    if op == "|":
        return (a != 0) | (b != 0)
    raise InterpreterError(f"unknown operator {op!r}")


def _real_compare(fn, a, b):
    return fn(np.real(a), np.real(b))


def _divide(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.true_divide(a, b)


def _power(a, b):
    # Negative base with fractional exponent goes complex in MATLAB.
    # Overflow-to-HUGE_VAL is intentional (matches c_pow in the C
    # runtime and the cycle simulator), so "over" is suppressed
    # alongside the usual divide/invalid edge cases.
    if not np.iscomplexobj(a) and not np.iscomplexobj(b):
        base = np.asarray(a, dtype=np.float64)
        expo = np.asarray(b, dtype=np.float64)
        needs_complex = np.any((base < 0) & (expo != np.round(expo)))
        if needs_complex:
            with np.errstate(over="ignore", invalid="ignore"):
                return np.power(base.astype(np.complex128), expo)
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore"):
            return np.power(base, expo)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.power(a, b)


# ----------------------------------------------------------------------
# Builtin functions
# ----------------------------------------------------------------------


def is_builtin(name: str) -> bool:
    return name in _BUILTINS


def call(name: str, args: list[object], nargout: int,
         stdout) -> list[object]:
    fn = _BUILTINS.get(name)
    if fn is None:
        raise InterpreterError(f"unknown builtin {name!r}")
    return fn(args, nargout, stdout)


def _simple(fn):
    """Wrap an args->value function into the builtin calling convention."""

    def wrapper(args, nargout, stdout):
        result = fn(*[to_value(a) if not isinstance(a, str) else a
                      for a in args])
        return [to_value(result)]

    return wrapper


def _dims_from_args(args) -> tuple[int, int]:
    if not args:
        return 1, 1
    if len(args) == 1:
        n = int(scalar_of(to_value(args[0])))
        return n, n
    return (int(scalar_of(to_value(args[0]))),
            int(scalar_of(to_value(args[1]))))


def _zeros(args, nargout, stdout):
    return [np.zeros(_dims_from_args(args))]


def _ones(args, nargout, stdout):
    return [np.ones(_dims_from_args(args))]


def _eye(args, nargout, stdout):
    rows, cols = _dims_from_args(args)
    return [np.eye(rows, cols)]


def _length(args, nargout, stdout):
    a = to_value(args[0])
    if isinstance(args[0], str):
        return [to_value(float(len(args[0])))]
    if a.size == 0:
        return [to_value(0.0)]
    return [to_value(float(max(a.shape)))]


def _numel(args, nargout, stdout):
    if isinstance(args[0], str):
        return [to_value(float(len(args[0])))]
    return [to_value(float(to_value(args[0]).size))]


def _size(args, nargout, stdout):
    a = to_value(args[0]) if not isinstance(args[0], str) else \
        char_to_double(args[0])
    if len(args) == 2:
        d = int(scalar_of(to_value(args[1])))
        dim = a.shape[d - 1] if d <= 2 else 1
        return [to_value(float(dim))]
    if nargout >= 2:
        return [to_value(float(a.shape[0])), to_value(float(a.shape[1]))]
    return [to_value([[float(a.shape[0]), float(a.shape[1])]])]


def _reduction(np_fn, identity=None):
    def run(args, nargout, stdout):
        a = to_value(args[0])
        if len(args) == 2:
            dim = int(scalar_of(to_value(args[1])))
            return [np.atleast_2d(np_fn(a, axis=dim - 1, keepdims=True))]
        if a.size == 0:
            return [to_value(identity if identity is not None else 0.0)]
        if a.shape[0] == 1 or a.shape[1] == 1:
            return [to_value(np_fn(a))]
        return [np.atleast_2d(np_fn(a, axis=0, keepdims=True))]

    return run


def _minmax(np_fn, arg_fn, pair_fn):
    def run(args, nargout, stdout):
        if len(args) == 2:
            a, b = to_value(args[0]), to_value(args[1])
            _conform("min/max", a, b)
            return [pair_fn(a, b)]
        a = to_value(args[0])
        if a.shape[0] == 1 or a.shape[1] == 1:
            flat = a.reshape(-1, order="F")
            index = int(arg_fn(np.real(flat)))
            results = [to_value(flat[index])]
            if nargout >= 2:
                results.append(to_value(float(index + 1)))
            return results
        values = np_fn(np.real(a), axis=0, keepdims=True)
        results = [np.atleast_2d(values)]
        if nargout >= 2:
            results.append(np.atleast_2d(
                arg_fn(np.real(a), axis=0).astype(np.float64) + 1))
        return results

    return run


def _norm(args, nargout, stdout):
    a = to_value(args[0])
    return [to_value(float(np.linalg.norm(a.reshape(-1, order="F"))))]


def _var(args, nargout, stdout):
    a = to_value(args[0]).reshape(-1, order="F")
    if a.size <= 1:
        return [to_value(0.0)]
    return [to_value(float(np.var(np.real(a), ddof=1)))]


def _std(args, nargout, stdout):
    a = to_value(args[0]).reshape(-1, order="F")
    if a.size <= 1:
        return [to_value(0.0)]
    return [to_value(float(np.std(np.real(a), ddof=1)))]


def _any(args, nargout, stdout):
    return [to_value(bool(np.any(to_value(args[0]) != 0)))]


def _all(args, nargout, stdout):
    return [to_value(bool(np.all(to_value(args[0]) != 0)))]


def _cumsum(args, nargout, stdout):
    a = to_value(args[0])
    flat = np.cumsum(a.reshape(-1, order="F"))
    return [flat.reshape(a.shape, order="F")]


def _sort(args, nargout, stdout):
    a = to_value(args[0])
    flat = a.reshape(-1, order="F")
    order = np.argsort(np.real(flat), kind="stable")
    results = [flat[order].reshape(a.shape, order="F")]
    if nargout >= 2:
        results.append((order.astype(np.float64) + 1)
                       .reshape(a.shape, order="F"))
    return results


def _dot(args, nargout, stdout):
    a, b = to_value(args[0]), to_value(args[1])
    if a.size != b.size:
        raise InterpreterError("dot(): vectors must have equal length")
    return [to_value(np.vdot(a.reshape(-1, order='F'),
                             b.reshape(-1, order='F')))]


def _round(args, nargout, stdout):
    a = to_value(args[0])
    return [np.where(np.real(a) >= 0, np.floor(np.real(a) + 0.5),
                     np.ceil(np.real(a) - 0.5)) + 0.0]


def _fix(args, nargout, stdout):
    return [np.trunc(np.real(to_value(args[0]))) + 0.0]


def _mod(args, nargout, stdout):
    a, b = to_value(args[0]), to_value(args[1])
    _conform("mod", a, b)
    result = np.where(b != 0, a - np.floor(_safe_div(a, b)) * b, a)
    return [np.atleast_2d(result)]


def _rem(args, nargout, stdout):
    a, b = to_value(args[0]), to_value(args[1])
    _conform("rem", a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.where(b != 0, np.fmod(a, b), np.nan)
    return [np.atleast_2d(result)]


def _safe_div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b != 0, a / np.where(b == 0, 1, b), 0)


def _sqrt(args, nargout, stdout):
    a = to_value(args[0])
    if not np.iscomplexobj(a) and np.any(a < 0):
        return [np.sqrt(a.astype(np.complex128))]
    return [np.sqrt(a)]


def _log(args, nargout, stdout):
    a = to_value(args[0])
    if not np.iscomplexobj(a) and np.any(a < 0):
        return [np.log(a.astype(np.complex128))]
    with np.errstate(divide="ignore"):
        return [np.log(a)]


def _complex_build(args, nargout, stdout):
    values = [to_value(a) for a in args]
    if len(values) == 1 and np.iscomplexobj(values[0]):
        return [values[0].astype(np.complex128)]
    if any(np.iscomplexobj(v) for v in values):
        raise InterpreterError(
            "complex(): with two arguments, both inputs must be real")
    imag = values[1].astype(np.float64) if len(values) > 1 else 0.0
    return [values[0].astype(np.float64) + 1j * imag]


def _reshape(args, nargout, stdout):
    a = to_value(args[0])
    rows = int(scalar_of(to_value(args[1])))
    cols = int(scalar_of(to_value(args[2])))
    if rows * cols != a.size:
        raise InterpreterError(
            f"reshape(): {a.size} elements cannot become {rows}x{cols}")
    return [a.reshape((rows, cols), order="F").copy()]


def _linspace(args, nargout, stdout):
    start = scalar_of(to_value(args[0]))
    stop = scalar_of(to_value(args[1]))
    n = int(scalar_of(to_value(args[2]))) if len(args) > 2 else 100
    return [np.linspace(start, stop, n).reshape(1, -1)]


def _filter(args, nargout, stdout):
    b = to_value(args[0]).reshape(-1, order="F")
    a = to_value(args[1]).reshape(-1, order="F")
    x = to_value(args[2])
    orig_shape = x.shape
    flat = x.reshape(-1, order="F")
    if a[0] == 0:
        raise InterpreterError("filter(): a(1) must be nonzero")
    dtype = np.complex128 if any(np.iscomplexobj(v) for v in (a, b, x)) \
        else np.float64
    y = np.zeros(flat.size, dtype=dtype)
    for n in range(flat.size):
        acc = dtype(0)
        for k in range(min(n + 1, b.size)):
            acc += b[k] * flat[n - k]
        for k in range(1, min(n + 1, a.size)):
            acc -= a[k] * y[n - k]
        y[n] = acc / a[0]
    return [y.reshape(orig_shape, order="F")]


def _conv(args, nargout, stdout):
    a = to_value(args[0])
    b = to_value(args[1])
    flat = np.convolve(a.reshape(-1, order="F"), b.reshape(-1, order="F"))
    if a.shape[1] == 1 and b.shape[1] == 1 and a.size > 1 and b.size > 1:
        return [flat.reshape(-1, 1)]
    return [flat.reshape(1, -1)]


def _fft(args, nargout, stdout):
    a = to_value(args[0])
    n = int(scalar_of(to_value(args[1]))) if len(args) > 1 else None
    flat = a.reshape(-1, order="F")
    out = np.fft.fft(flat, n)
    return [out.reshape(-1, 1) if a.shape[0] > 1 else out.reshape(1, -1)]


def _ifft(args, nargout, stdout):
    a = to_value(args[0])
    n = int(scalar_of(to_value(args[1]))) if len(args) > 1 else None
    flat = a.reshape(-1, order="F")
    out = np.fft.ifft(flat, n)
    return [out.reshape(-1, 1) if a.shape[0] > 1 else out.reshape(1, -1)]


def _disp(args, nargout, stdout):
    value = args[0]
    if isinstance(value, str):
        stdout.write(value + "\n")
    else:
        with np.printoptions(precision=4, suppress=True):
            stdout.write(str(to_value(value)) + "\n")
    return []


def _fprintf(args, nargout, stdout):
    if not args or not isinstance(args[0], str):
        raise InterpreterError("fprintf() requires a format string")
    fmt = args[0].replace("\\n", "\n").replace("\\t", "\t")
    scalars = []
    for arg in args[1:]:
        value = to_value(arg)
        scalars.extend(np.real(value.reshape(-1, order="F")).tolist())
    try:
        stdout.write(_printf(fmt, scalars))
    except (TypeError, ValueError) as exc:
        raise InterpreterError(f"fprintf(): {exc}") from exc
    return []


def _printf(fmt: str, values: list[float]) -> str:
    """MATLAB fprintf recycles the format over the value list."""
    import re
    spec = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[diouxXeEfgGcs%]")
    count = len([m for m in spec.finditer(fmt) if m.group() != "%%"])
    if count == 0 or not values:
        return fmt % () if "%" not in fmt.replace("%%", "") else fmt
    out = []
    index = 0
    while index < len(values):
        chunk = values[index:index + count]
        if len(chunk) < count:
            chunk = chunk + [0.0] * (count - len(chunk))
        converted = tuple(int(v) if abs(v - int(v)) < 1e-12 else v
                          for v in chunk)
        try:
            out.append(fmt % converted)
        except TypeError:
            out.append(fmt % tuple(float(v) for v in chunk))
        index += count
    return "".join(out)


def _error(args, nargout, stdout):
    message = args[0] if isinstance(args[0], str) else "error"
    raise InterpreterError(message)


def _isreal(args, nargout, stdout):
    return [to_value(not np.iscomplexobj(to_value(args[0])))]


def _isempty(args, nargout, stdout):
    if isinstance(args[0], str):
        return [to_value(len(args[0]) == 0)]
    return [to_value(to_value(args[0]).size == 0)]


def _cast(dtype, logical=False):
    def run(args, nargout, stdout):
        a = to_value(args[0]) if not isinstance(args[0], str) else \
            char_to_double(args[0])
        if logical:
            return [a != 0]
        if np.iscomplexobj(a) and dtype in (np.float32, np.float64):
            return [a.astype(np.complex64 if dtype is np.float32
                             else np.complex128)]
        if np.iscomplexobj(a):
            a = np.real(a)
        if dtype in (np.int8, np.int16, np.int32):
            info = np.iinfo(dtype)
            return [np.clip(np.where(np.real(a) >= 0,
                                     np.floor(np.real(a) + 0.5),
                                     np.ceil(np.real(a) - 0.5)),
                            info.min, info.max).astype(np.float64)]
        return [a.astype(dtype)]

    return run


_BUILTINS = {
    "zeros": _zeros,
    "ones": _ones,
    "eye": _eye,
    "length": _length,
    "numel": _numel,
    "size": _size,
    "sum": _reduction(np.sum, identity=0.0),
    "prod": _reduction(np.prod, identity=1.0),
    "mean": _reduction(np.mean),
    "min": _minmax(np.min, np.argmin, np.minimum),
    "max": _minmax(np.max, np.argmax, np.maximum),
    "dot": _dot,
    "norm": _norm,
    "var": _var,
    "std": _std,
    "any": _any,
    "all": _all,
    "cumsum": _cumsum,
    "sort": _sort,
    "abs": _simple(np.abs),
    "real": _simple(np.real),
    "imag": _simple(np.imag),
    "conj": _simple(np.conj),
    "angle": _simple(np.angle),
    "sqrt": _sqrt,
    "exp": _simple(np.exp),
    "log": _log,
    "sin": _simple(np.sin),
    "cos": _simple(np.cos),
    "tan": _simple(np.tan),
    "atan": _simple(np.arctan),
    "atan2": _simple(np.arctan2),
    "hypot": _simple(np.hypot),
    "floor": _simple(lambda a: np.floor(np.real(a)) + 0.0),
    "ceil": _simple(lambda a: np.ceil(np.real(a)) + 0.0),
    "round": _round,
    "fix": _fix,
    "sign": _simple(lambda a: np.sign(np.real(a)) + 0.0),
    "mod": _mod,
    "rem": _rem,
    "power": _simple(_power),
    "complex": _complex_build,
    "transpose": _simple(lambda a: a.T.copy()),
    "ctranspose": _simple(lambda a: a.conj().T.copy()),
    "reshape": _reshape,
    "linspace": _linspace,
    "fliplr": _simple(np.fliplr),
    "flipud": _simple(np.flipud),
    "filter": _filter,
    "conv": _conv,
    "fft": _fft,
    "ifft": _ifft,
    "disp": _disp,
    "fprintf": _fprintf,
    "error": _error,
    "isreal": _isreal,
    "isempty": _isempty,
    "double": _cast(np.float64),
    "single": _cast(np.float32),
    "int8": _cast(np.int8),
    "int16": _cast(np.int16),
    "int32": _cast(np.int32),
    "logical": _cast(None, logical=True),
}
