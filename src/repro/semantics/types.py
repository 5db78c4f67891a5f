"""MATLAB type lattice.

A value's static type is an :class:`MType`: a numeric class
(:class:`DType`), a complex flag, a 2-D :class:`~repro.semantics.shapes.Shape`,
and optionally a compile-time constant value.  Constant tracking is what
lets ``y = zeros(1, N)`` with ``N = length(x)`` produce a statically sized
C array when the entry point's argument shapes are concrete (the same
mechanism MATLAB Coder's ``-args`` specification relies on).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.semantics.shapes import SCALAR, Shape


class DType(enum.Enum):
    """Numeric classes, ordered by promotion rank."""

    CHAR = -1
    LOGICAL = 0
    INT8 = 1
    INT16 = 2
    INT32 = 3
    SINGLE = 4
    DOUBLE = 5

    def __init__(self, value: int) -> None:
        # Plain per-member attributes: a set or dict keyed by the member
        # would hash it through ``Enum.__hash__`` on each lookup.
        self.is_integer = value in (1, 2, 3)
        self.is_float = value in (4, 5)
        self.short_name = ("char", "logical", "int8", "int16", "int32",
                           "single", "double")[value + 1]

    def join(self, other: "DType") -> "DType":
        """MATLAB class combination.

        Mostly the promotion-rank upper bound, with MATLAB's twists that
        the *narrower* class dominates mixed expressions: ``single``
        beats ``double``, and integer classes beat floats (an int16
        array times a double literal stays int16).  Two different
        integer classes (an error in MATLAB) join to the wider one.
        """
        if self.is_float and other.is_float and self is not other:
            return DType.SINGLE  # single with double
        if self.is_integer and other.is_float:
            return self
        if other.is_integer and self.is_float:
            return other
        return self if self.value >= other.value else other


_BY_SHORT_NAME = {dtype.short_name: dtype for dtype in DType}


def dtype_from_name(name: str) -> DType | None:
    """Map a MATLAB class name ('double', 'int16', ...) to a DType."""
    return _BY_SHORT_NAME.get(name)


@dataclass(frozen=True)
class MType:
    """Static type of a MATLAB value.

    Attributes:
        dtype: numeric class.
        is_complex: True for complex values.
        shape: 2-D shape (scalars are (1, 1)).
        value: compile-time constant value when known (int/float/complex
            for scalars; used for shape propagation and loop analysis).
    """

    dtype: DType = DType.DOUBLE
    is_complex: bool = False
    shape: Shape = SCALAR
    value: object = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def scalar(dtype: DType = DType.DOUBLE, is_complex: bool = False,
               value: object = None) -> "MType":
        return MType(dtype=dtype, is_complex=is_complex, shape=SCALAR, value=value)

    @staticmethod
    def double(value: float | None = None) -> "MType":
        return MType.scalar(DType.DOUBLE, value=value)

    @staticmethod
    def logical(value: bool | None = None) -> "MType":
        return MType.scalar(DType.LOGICAL, value=value)

    @staticmethod
    def array(dtype: DType, rows, cols, is_complex: bool = False) -> "MType":
        return MType(dtype=dtype, is_complex=is_complex, shape=Shape(rows, cols))

    # -- queries --------------------------------------------------------

    @property
    def is_scalar(self) -> bool:
        return self.shape.is_scalar

    @property
    def is_vector(self) -> bool:
        return self.shape.is_vector

    # -- derived types ---------------------------------------------------

    def with_shape(self, shape: Shape) -> "MType":
        return replace(self, shape=shape, value=None if not shape.is_scalar else self.value)

    def without_value(self) -> "MType":
        return replace(self, value=None) if self.value is not None else self

    def as_real(self) -> "MType":
        return replace(self, is_complex=False, value=None)

    def as_complex(self) -> "MType":
        return replace(self, is_complex=True, value=None)

    def element_type(self) -> "MType":
        """The type of a single element of this value."""
        return MType(dtype=self.dtype, is_complex=self.is_complex, shape=SCALAR)

    def join(self, other: "MType") -> "MType":
        """Least upper bound, used at control-flow merges."""
        shape = self.shape.join(other.shape)
        value = self.value if self.value == other.value else None
        # Mixed int/float joins to float in this compiler's model.
        dtype = self.dtype.join(other.dtype)
        return MType(
            dtype=dtype,
            is_complex=self.is_complex or other.is_complex,
            shape=shape,
            value=value,
        )

    def describe(self) -> str:
        base = self.dtype.short_name
        if self.is_complex:
            base = "complex " + base
        if self.shape.is_scalar:
            text = base
        else:
            text = f"{base} {self.shape.describe()}"
        if self.value is not None:
            text += f" (= {self.value!r})"
        return text


#: Convenient shared instances.
DOUBLE = MType.double()
LOGICAL = MType.logical()
INT32 = MType.scalar(DType.INT32)


def promote_binary(a: MType, b: MType) -> tuple[DType, bool]:
    """Numeric promotion for a binary arithmetic op: (dtype, is_complex)."""
    dtype = a.dtype.join(b.dtype)
    # Logical operands participate in arithmetic as doubles, like MATLAB.
    if dtype is DType.LOGICAL:
        dtype = DType.DOUBLE
    return dtype, a.is_complex or b.is_complex
