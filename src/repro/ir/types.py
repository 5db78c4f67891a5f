"""IR-level types: scalars, SIMD vectors, and statically-shaped arrays.

The IR is fully concrete: every array has static (rows, cols) and MATLAB
column-major element order, so linear indexing and reshape behave exactly
like the source language.  Complex numbers are first-class scalar kinds
(lowered by the C backend to a two-field struct or to complex-arithmetic
intrinsics when the target ASIP has them).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import LoweringError
from repro.semantics.types import MType


class ScalarKind(enum.Enum):
    """Primitive machine-level element kinds."""

    BOOL = "bool"
    I8 = "i8"
    I16 = "i16"
    I32 = "i32"
    F32 = "f32"
    F64 = "f64"
    C64 = "c64"    # complex of two f32
    C128 = "c128"  # complex of two f64

    def __init__(self, value: str) -> None:
        # Plain per-member flags: a property testing set membership
        # would hash the member through ``Enum.__hash__`` on each call.
        self.is_complex = value in ("c64", "c128")
        self.is_float = value in ("f32", "f64")
        self.is_integer = not (self.is_complex or self.is_float)

    @property
    def real_kind(self) -> "ScalarKind":
        """The component kind of a complex kind (identity otherwise)."""
        if self is ScalarKind.C64:
            return ScalarKind.F32
        if self is ScalarKind.C128:
            return ScalarKind.F64
        return self


@dataclass(frozen=True)
class ScalarType:
    """A scalar IR value type."""

    kind: ScalarKind

    @property
    def is_complex(self) -> bool:
        return self.kind.is_complex

    @property
    def is_float(self) -> bool:
        return self.kind.is_float

    @property
    def is_integer(self) -> bool:
        return self.kind.is_integer

    def describe(self) -> str:
        return self.kind.value


@dataclass(frozen=True)
class VectorType:
    """A SIMD value: ``lanes`` elements of a scalar kind."""

    elem: ScalarType
    lanes: int

    @property
    def is_complex(self) -> bool:
        return self.elem.is_complex

    def describe(self) -> str:
        return f"<{self.lanes} x {self.elem.describe()}>"


@dataclass(frozen=True)
class ArrayType:
    """A statically shaped 2-D array, column-major like MATLAB."""

    elem: ScalarType
    rows: int
    cols: int

    @property
    def numel(self) -> int:
        return self.rows * self.cols

    @property
    def is_complex(self) -> bool:
        return self.elem.is_complex

    def describe(self) -> str:
        return f"{self.elem.describe()}[{self.rows}x{self.cols}]"


IRType = ScalarType | VectorType | ArrayType

#: Shared scalar instances.
BOOL = ScalarType(ScalarKind.BOOL)
I32 = ScalarType(ScalarKind.I32)
F32 = ScalarType(ScalarKind.F32)
F64 = ScalarType(ScalarKind.F64)
C64 = ScalarType(ScalarKind.C64)
C128 = ScalarType(ScalarKind.C128)

#: The integers each real kind holds exactly, as an inclusive range.
EXACT_INTEGERS = {
    ScalarKind.BOOL: (0, 1),
    ScalarKind.I8: (-2 ** 7, 2 ** 7 - 1),
    ScalarKind.I16: (-2 ** 15, 2 ** 15 - 1),
    ScalarKind.I32: (-2 ** 31, 2 ** 31 - 1),
    ScalarKind.F32: (-2 ** 24, 2 ** 24),
    ScalarKind.F64: (-2 ** 53, 2 ** 53),
}

#: By ``DType.short_name``: a string key hashes in C, an enum member
#: through ``Enum.__hash__``.
_DTYPE_TO_KIND = {
    "logical": ScalarKind.BOOL,
    "char": ScalarKind.I8,
    "int8": ScalarKind.I8,
    "int16": ScalarKind.I16,
    "int32": ScalarKind.I32,
    "single": ScalarKind.F32,
    "double": ScalarKind.F64,
}


def scalar_from_mtype(mtype: MType) -> ScalarType:
    """Element IR type of a MATLAB type."""
    kind = _DTYPE_TO_KIND[mtype.dtype.short_name]
    if mtype.is_complex:
        if kind is ScalarKind.F32:
            kind = ScalarKind.C64
        elif kind is ScalarKind.F64:
            kind = ScalarKind.C128
        else:
            raise LoweringError(
                f"complex {mtype.dtype.short_name} has no IR representation")
    return ScalarType(kind)


def from_mtype(mtype: MType, what: str = "value") -> IRType:
    """Full IR type of a MATLAB type; arrays must be concretely shaped."""
    elem = scalar_from_mtype(mtype)
    if mtype.is_scalar:
        return elem
    shape = mtype.shape
    if not shape.is_concrete:
        raise LoweringError(
            f"cannot lower {what}: shape {shape.describe()} is not fully "
            "known at compile time (allocation sizes must derive from "
            "entry-point argument shapes or literals)")
    return ArrayType(elem, shape.rows, shape.cols)
