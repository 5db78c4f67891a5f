"""In-process execution of one compiled module through its ``.so``.

A :class:`NativeProgram` owns the loaded shared object plus the
marshalling plan for the entry signature.  ``run`` marshals arguments
into flat column-major element buffers (zero-copy views whenever the
caller's numpy array already has the right dtype — the common case for
benchmark/fuzz inputs), dispatches through the fixed-ABI wrapper, and
returns output buffers as reshaped numpy *views* (no copy) in MATLAB
shape.

No cycle accounting happens here: the returned
:class:`~repro.sim.machine.ExecutionResult` carries an empty
:class:`~repro.sim.cost.CycleReport`.  ``Emit``/``printf`` statements
in the generated C write to the real process stdout (they are not
captured the way the simulators capture them).
"""

from __future__ import annotations

import ctypes
import shutil

import numpy as np

from repro.errors import BackendError, SimulationError
from repro.ir.types import ScalarKind, ScalarType
from repro.native.abi import (WRAPPER_SYMBOL, Slot, build_plan,
                              native_source)
from repro.native.builder import default_cache
from repro.observe import trace as obs_trace
from repro.sim.cost import CycleReport
from repro.sim.machine import ExecutionResult, coerce_scalar


def _array_input(slot: Slot):
    """The marshaller of one array slot: the flat column-major element
    buffer for an argument (a view when the caller's array already has
    the slot's dtype and column-major layout)."""
    dtype, numel, name = slot.dtype, slot.numel, slot.name

    def marshal(value) -> np.ndarray:
        buf = np.asarray(value)
        if buf.dtype != dtype:
            buf = buf.astype(dtype)
        buf = buf.ravel(order="F")
        if buf.size != numel:
            raise SimulationError(
                f"argument {name!r}: expected {numel} "
                f"elements, got {buf.size}")
        return buf
    return marshal


def _scalar_input(slot: Slot):
    """The marshaller of one scalar slot: a one-element buffer holding
    the argument coerced the way the simulators coerce it."""
    dtype, scalar_type = slot.dtype, ScalarType(slot.kind)

    def marshal(value) -> np.ndarray:
        return np.array([coerce_scalar(value, scalar_type)], dtype=dtype)
    return marshal


def _scalar_output(kind: ScalarKind):
    """The Python type of a scalar output (the simulators' type)."""
    if kind.is_complex:
        return complex
    if kind is ScalarKind.BOOL:
        return bool
    if kind.is_integer:
        return int
    return float


def _output_converter(slot: Slot):
    """The function turning one filled output buffer into the value the
    simulators return for ``slot``."""
    if not slot.is_array:
        to_python = _scalar_output(slot.kind)
        return lambda buf: to_python(buf.item())
    shape = (slot.rows, slot.cols)
    if slot.kind is ScalarKind.BOOL:
        return lambda buf: buf.reshape(shape, order="F").astype(np.bool_)
    return lambda buf: buf.reshape(shape, order="F")


def _address(buf: np.ndarray) -> int:
    """Address of ``buf``'s first element.  ``c_char.from_buffer`` is
    about three times cheaper than ``buf.ctypes.data`` but needs a
    writable, non-empty buffer."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(buf))
    except (TypeError, ValueError):
        return buf.ctypes.data


class NativeProgram:
    """Compile-once / call-hot executor for one module's entry point.

    Everything that depends only on the entry signature (per-slot
    dtypes, marshallers, output converters and the ctypes pointer-array
    types) is planned once here, so ``run`` does only per-call work.
    ``run`` keeps no state between calls: it is reentrant, and the
    wrapper call releases the GIL.
    """

    def __init__(self, module, processor, cc: str = "gcc", cache=None):
        if shutil.which(cc) is None:
            raise BackendError(
                f"native backend requires a host C compiler "
                f"({cc!r} is not on PATH)")
        self.plan = plan = build_plan(module)
        self.cc = cc
        self.source = native_source(module, processor)
        cache = cache if cache is not None else default_cache()
        lib = cache.load(self.source, cc=cc)
        self._fn = getattr(lib, WRAPPER_SYMBOL)
        self._fn.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                             ctypes.POINTER(ctypes.c_void_p)]
        self._fn.restype = None
        self._marshallers = tuple(
            _array_input(slot) if slot.is_array else _scalar_input(slot)
            for slot in plan.params)
        self._out_buffers = tuple((slot.numel, slot.dtype)
                                  for slot in plan.outputs)
        self._converters = tuple(_output_converter(slot)
                                 for slot in plan.outputs)
        self._in_ptrs = ctypes.c_void_p * max(1, len(plan.params))
        self._out_ptrs = ctypes.c_void_p * max(1, len(plan.outputs))

    def run(self, args: list[object]) -> ExecutionResult:
        """Execute the entry point on ``args`` in-process."""
        marshallers = self._marshallers
        if len(args) != len(marshallers):
            raise SimulationError(
                f"{self.plan.entry}: expected {len(marshallers)} "
                f"arguments, got {len(args)}")
        in_bufs = [marshal(value)
                   for marshal, value in zip(marshallers, args)]
        out_bufs = [np.zeros(numel, dtype)
                    for numel, dtype in self._out_buffers]
        in_ptrs = self._in_ptrs()
        for index, buf in enumerate(in_bufs):
            in_ptrs[index] = _address(buf)
        out_ptrs = self._out_ptrs()
        for index, buf in enumerate(out_bufs):
            out_ptrs[index] = _address(buf)
        self._fn(in_ptrs, out_ptrs)
        outputs = [convert(buf)
                   for convert, buf in zip(self._converters, out_bufs)]
        obs_trace.current().counter("native.calls")
        return ExecutionResult(outputs=outputs, report=CycleReport())
