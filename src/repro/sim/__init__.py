"""Cycle-accurate IR execution against ASIP cost models.

:class:`~repro.sim.compiled.CompiledProgram` translates an IR module
once into Python functions that count how often each charge point
executes, and reuses them for every run; a
:class:`~repro.sim.cost.CostModel` prices the points into each run's
:class:`~repro.sim.cost.CycleReport`.  :mod:`repro.sim.machine` holds the runtime helpers and the
:class:`~repro.sim.machine.ExecutionResult` a run returns.
"""

from repro.sim.compiled import CompiledProgram
from repro.sim.cost import CostModel, CycleReport
from repro.sim.machine import ExecutionResult

__all__ = [
    "CompiledProgram",
    "CostModel",
    "CycleReport",
    "ExecutionResult",
]
