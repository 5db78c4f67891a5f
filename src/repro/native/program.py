"""In-process execution of one compiled module through its ``.so``.

A :class:`NativeProgram` owns the loaded shared object and one
generated call stub for the entry signature.  The stub is straight-line
Python written once per program from its
:class:`~repro.native.abi.CallPlan` (compiled with ``compile``/``exec``,
the idiom of :mod:`repro.sim.compiled`; its text is
``NativeProgram.stub_source``).
One call unpacks the arguments, marshals each into a flat column-major
element buffer (a zero-copy view whenever the caller's numpy array
already has the slot's dtype and layout — the common case for
benchmark/fuzz inputs), allocates fresh output buffers, stores each
buffer's address into the pointer arrays by index (a ctypes array built
empty and filled by index costs about a third of one built from
constructor arguments), dispatches through the fixed-ABI wrapper and
returns the output buffers as reshaped numpy *views* (no copy) in
MATLAB shape.  Every slot's dtype, element count, shape and scalar type
is a literal or a bound name in the stub, so no per-call work walks the
plan.

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
from repro.native.abi import (WRAPPER_SYMBOL, CallPlan, Slot, build_plan,
                              native_source)
from repro.native.builder import default_cache
from repro.observe import trace as obs_trace
from repro.sim.cost import CycleReport
from repro.sim.machine import (PYTHON_SCALAR_TYPES, ExecutionResult,
                                coerce_scalar)

#: Names every stub reads besides its program's own ``fn``, ``IP``
#: (input pointer-array type), ``OP`` (output pointer-array type), the
#: slot dtypes (bound by ``dtype.name``) and the scalar types of scalar
#: inputs (bound by ``ScalarKind.name``).  ``c_char.from_buffer`` is
#: about three times cheaper than ``ndarray.ctypes.data`` but needs a
#: writable, non-empty buffer.
_STUB_GLOBALS = {
    "asarray": np.asarray,
    "array": np.array,
    "zeros": np.zeros,
    "bool_": np.bool_,
    "addressof": ctypes.addressof,
    "from_buffer": ctypes.c_char.from_buffer,
    "coerce_scalar": coerce_scalar,
    "SimulationError": SimulationError,
    "ExecutionResult": ExecutionResult,
    "CycleReport": CycleReport,
    "current": obs_trace.current,
}


def _input_lines(index: int, slot: Slot) -> list[str]:
    """The lines marshalling argument ``a<index>`` into buffer
    ``b<index>`` and storing its address in ``ip[<index>]``."""
    arg, buf, dtype = f"a{index}", f"b{index}", slot.dtype.name
    if not slot.is_array:
        # A fresh 0-d buffer of one element: writable and non-empty.
        return [f"{buf} = array(coerce_scalar({arg}, {slot.kind.name}), "
                f"{dtype})",
                f"ip[{index}] = addressof(from_buffer({buf}))"]
    error = f"argument {slot.name!r}: expected {slot.numel} elements, got "
    lines = [
        f"{buf} = asarray({arg}).astype({dtype}, copy=False).ravel('F')",
        f"if {buf}.size != {slot.numel}:",
        f"    raise SimulationError({error!r} + str({buf}.size))",
    ]
    if not slot.numel:
        return lines + [f"ip[{index}] = {buf}.ctypes.data"]
    # A view of the caller's array may be read-only.
    return lines + [
        "try:",
        f"    ip[{index}] = addressof(from_buffer({buf}))",
        "except (TypeError, ValueError):",
        f"    ip[{index}] = {buf}.ctypes.data",
    ]


def _output_lines(index: int, slot: Slot) -> list[str]:
    """The lines allocating output buffer ``o<index>`` and storing its
    address in ``op[<index>]``."""
    buf = f"o{index}"
    address = f"addressof(from_buffer({buf}))" if slot.numel \
        else f"{buf}.ctypes.data"
    return [f"{buf} = zeros({slot.numel}, {slot.dtype.name})",
            f"op[{index}] = {address}"]


def _output_value(index: int, slot: Slot) -> str:
    """The expression turning filled buffer ``o<index>`` into the value
    the simulators return for ``slot``."""
    buf = f"o{index}"
    if not slot.is_array:
        return f"{PYTHON_SCALAR_TYPES[slot.kind].__name__}({buf}.item())"
    view = f"{buf}.reshape(({slot.rows}, {slot.cols}), order='F')"
    if slot.kind is ScalarKind.BOOL:
        return f"{view}.astype(bool_)"
    return view


def stub_source(plan: CallPlan) -> str:
    """The Python text of ``plan``'s call stub, ``run(args)``: one
    straight-line function with no loop over the slots."""
    count = len(plan.params)
    arity = f"{plan.entry}: expected {count} arguments, got "
    names = ", ".join(f"a{index}" for index in range(count))
    lines = [
        "try:",
        f"    [{names}] = args",
        "except ValueError:",
        f"    raise SimulationError({arity!r} + str(len(args))) from None",
        "ip = IP()",
    ]
    for index, slot in enumerate(plan.params):
        lines += _input_lines(index, slot)
    lines.append("op = OP()")
    for index, slot in enumerate(plan.outputs):
        lines += _output_lines(index, slot)
    values = ", ".join(_output_value(index, slot)
                       for index, slot in enumerate(plan.outputs))
    lines += [
        "fn(ip, op)",
        "current().counter('native.calls')",
        f"return ExecutionResult([{values}], CycleReport())",
    ]
    return "def run(args):\n" + "".join(f"    {line}\n" for line in lines)


class NativeProgram:
    """Compile-once / call-hot executor for one module's entry point.

    ``run(args)`` executes the entry point on ``args`` in-process.  It
    is the call stub generated here from the entry signature (its text
    is :attr:`stub_source`), so a call does only per-call work.  The
    stub keeps no state between calls: it is reentrant, and the wrapper
    call releases the GIL.
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
        fn = getattr(lib, WRAPPER_SYMBOL)
        fn.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                       ctypes.POINTER(ctypes.c_void_p)]
        fn.restype = None
        namespace = dict(
            _STUB_GLOBALS, fn=fn,
            IP=ctypes.c_void_p * max(1, len(plan.params)),
            OP=ctypes.c_void_p * max(1, len(plan.outputs)))
        for slot in plan.params + plan.outputs:
            namespace[slot.dtype.name] = slot.dtype
        for slot in plan.params:
            if not slot.is_array:
                namespace[slot.kind.name] = ScalarType(slot.kind)
        self.stub_source = stub_source(plan)
        exec(compile(self.stub_source, f"<native stub {plan.entry}>",
                     "exec"), namespace)
        self.run = namespace["run"]
