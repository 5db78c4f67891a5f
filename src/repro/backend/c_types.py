"""C-level type naming shared by the emitter and the harness."""

from __future__ import annotations

from repro.errors import BackendError
from repro.asip.header_gen import c_elem_name, vector_type_name
from repro.ir.types import ArrayType, IRType, ScalarKind, ScalarType, VectorType


def c_type_name(ir_type: IRType) -> str:
    """The C type used for one IR value (element type for arrays)."""
    if isinstance(ir_type, ScalarType):
        return c_elem_name(ir_type.kind)
    if isinstance(ir_type, VectorType):
        return vector_type_name(ir_type.elem.kind, ir_type.lanes)
    if isinstance(ir_type, ArrayType):
        return c_elem_name(ir_type.elem.kind)
    raise BackendError(f"no C representation for {ir_type!r}")


def complex_helper_prefix(kind: ScalarKind) -> str:
    if kind is ScalarKind.C64:
        return "asip_c64"
    if kind is ScalarKind.C128:
        return "asip_c128"
    raise BackendError(f"{kind} is not a complex kind")
