"""Runtime helpers shared by the execution backends.

Arrays travel as flat numpy buffers in MATLAB column-major element
order and scalars as Python numbers.  These helpers convert arguments
into that form and back, format ``Emit`` output, and hold one run's
:class:`ExecutionResult`.  The cycle-accounting executor itself is
:mod:`repro.sim.compiled`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.ir.types import ArrayType, ScalarKind, ScalarType
from repro.sim.cost import CycleReport

_NUMPY_DTYPES = {
    ScalarKind.BOOL: np.bool_,
    ScalarKind.I8: np.int8,
    ScalarKind.I16: np.int16,
    ScalarKind.I32: np.int32,
    ScalarKind.F32: np.float32,
    ScalarKind.F64: np.float64,
    ScalarKind.C64: np.complex64,
    ScalarKind.C128: np.complex128,
}


def numpy_dtype(kind: ScalarKind):
    return _NUMPY_DTYPES[kind]


def as_buffer(value, array_type: ArrayType, name: str) -> np.ndarray:
    """Flatten ``value`` to the column-major buffer an array arg uses."""
    dtype = numpy_dtype(array_type.elem.kind)
    array = np.asarray(value)
    if array.size != array_type.numel:
        raise SimulationError(
            f"argument {name!r}: expected {array_type.numel} elements, "
            f"got {array.size}")
    return np.ascontiguousarray(
        array.reshape(-1, order="F").astype(dtype, copy=True))


def coerce_scalar(value, scalar_type: ScalarType):
    """Coerce a scalar argument to the Python value the IR type implies."""
    if isinstance(value, np.ndarray):
        if value.size != 1:
            raise SimulationError(
                f"expected a scalar argument, got an array of "
                f"{value.size} elements")
        value = value.reshape(-1)[0]
    kind = scalar_type.kind
    if kind.is_complex:
        return complex(value)
    if kind is ScalarKind.BOOL:
        return bool(value)
    if kind.is_integer:
        return int(value)
    return float(value)


def from_numpy(value):
    """Unbox a numpy scalar into the plain Python value the IR uses."""
    if isinstance(value, (np.complexfloating,)):
        return complex(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def format_emit(format_string: str, values: list[object]) -> str:
    """printf-style formatting with the permissive fallback Emit uses."""
    try:
        return format_string % tuple(values)
    except (TypeError, ValueError):
        return format_string + " " + " ".join(str(v) for v in values)


@dataclass
class ExecutionResult:
    """Outputs plus the cycle report of one entry-point run."""

    outputs: list[object]
    report: CycleReport
    stdout: str = ""
    #: 1-based MATLAB source line -> cycles charged there (line 0 =
    #: compiler-generated statements).  None unless the run was
    #: profiled (``simulate(..., hotspots=True)``).
    line_cycles: "dict[int, int] | None" = None

    def hotspots(self) -> list[tuple[int, int]]:
        """(line, cycles) pairs, hottest first.

        Requires a line-profiled run (``hotspots=True``).
        """
        if self.line_cycles is None:
            raise ValueError(
                "no line profile recorded; run simulate(..., "
                "hotspots=True) to collect one")
        from repro.observe.hotspots import line_table
        return line_table(self.line_cycles)
