"""Stable C ABI wrapper for in-process dispatch of the emitted entry.

The emitted entry point's signature varies per program (scalars by
value, complex scalars as struct-by-value, arrays as element pointers).
Calling it directly through ctypes would require rebuilding a ctypes
signature — including struct-by-value classes whose passing convention
is ABI-sensitive — for every program.  Instead the native tier appends
one wrapper with a fixed, pointer-only signature::

    void repro_native_call(const void * const *in, void * const *out);

* ``in[i]`` points at argument ``i``'s storage: the flat column-major
  element buffer for arrays (``const T *``, exactly the layout the
  emitted code indexes), or a single element for scalars (dereferenced
  by the wrapper; complex scalars are ``asip_c64``/``asip_c128``
  structs, which are layout-identical to numpy's complex64/complex128).
* ``out[j]`` points at output ``j``'s storage: a caller-allocated flat
  column-major buffer for arrays, or a single element written through
  the entry's scalar out-parameter.

Every multi-return output is an explicit out-pointer, so the wrapper
ABI never depends on struct-return conventions.  The only ctypes
signature ever needed is ``void (void**, void**)``.

Element storage matches :mod:`repro.backend.c_types`: the C element
type of a ``BOOL`` value is ``int``, so bool scalars/buffers marshal
through ``numpy.intc`` (1-byte ``numpy.bool_`` buffers would corrupt
adjacent elements) and are converted back to ``bool`` on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.c_types import c_type_name
from repro.ir import nodes as ir
from repro.ir.types import ArrayType, ScalarKind, ScalarType

#: Exported symbol of the fixed-signature dispatch wrapper.
WRAPPER_SYMBOL = "repro_native_call"

#: numpy dtype backing each scalar kind's *C* element storage.  BOOL is
#: stored as C ``int`` by the emitter (see ``c_types``), not as a
#: 1-byte numpy bool.
_BUFFER_DTYPES = {
    ScalarKind.BOOL: np.intc,
    ScalarKind.I8: np.int8,
    ScalarKind.I16: np.int16,
    ScalarKind.I32: np.intc,
    ScalarKind.F32: np.float32,
    ScalarKind.F64: np.float64,
    ScalarKind.C64: np.complex64,
    ScalarKind.C128: np.complex128,
}


def buffer_dtype(kind: ScalarKind):
    """The numpy dtype whose memory layout matches the C element type."""
    return np.dtype(_BUFFER_DTYPES[kind])


@dataclass(frozen=True)
class Slot:
    """Marshalling recipe for one wrapper argument slot."""

    name: str
    kind: ScalarKind
    is_array: bool
    rows: int = 1
    cols: int = 1

    @property
    def numel(self) -> int:
        return self.rows * self.cols

    @property
    def dtype(self):
        return buffer_dtype(self.kind)


@dataclass(frozen=True)
class CallPlan:
    """Input/output slot layout of one entry point's wrapper call."""

    entry: str
    params: tuple[Slot, ...]
    outputs: tuple[Slot, ...]


def _slot(param: ir.Param) -> Slot:
    if isinstance(param.type, ArrayType):
        return Slot(name=param.name, kind=param.type.elem.kind,
                    is_array=True, rows=param.type.rows,
                    cols=param.type.cols)
    assert isinstance(param.type, ScalarType)
    return Slot(name=param.name, kind=param.type.kind, is_array=False)


def build_plan(module: ir.IRModule) -> CallPlan:
    """Derive the marshalling plan from the module's entry signature."""
    entry = module.entry_function
    return CallPlan(entry=entry.name,
                    params=tuple(_slot(p) for p in entry.params),
                    outputs=tuple(_slot(o) for o in entry.outputs))


def wrapper_source(module: ir.IRModule) -> str:
    """The C text of the fixed-ABI dispatch wrapper (appended after the
    translation unit; the entry's own prototype is already in scope)."""
    entry = module.entry_function
    args: list[str] = []
    for index, param in enumerate(entry.params):
        c_elem = c_type_name(param.type)
        if isinstance(param.type, ArrayType):
            args.append(f"(const {c_elem} *)in[{index}]")
        else:
            args.append(f"*(const {c_elem} *)in[{index}]")
    for index, out in enumerate(entry.outputs):
        c_elem = c_type_name(out.type)
        args.append(f"({c_elem} *)out[{index}]")
    call = f"{entry.name}({', '.join(args)});" if args \
        else f"{entry.name}();"
    return "\n".join([
        f"/* ---- stable native-dispatch ABI (entry: {entry.name}) "
        "---- */",
        "",
        f"void {WRAPPER_SYMBOL}(const void * const *in, "
        "void * const *out)",
        "{",
        "    (void)in; (void)out;",
        f"    {call}",
        "}",
    ]) + "\n"


def native_source(module: ir.IRModule, processor) -> str:
    """The full translation unit the shared object is built from."""
    from repro.backend.emitter import emit_c

    return emit_c(module, processor, main_body=wrapper_source(module))
