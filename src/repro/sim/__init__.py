"""Cycle-accurate IR execution against ASIP cost models.

:class:`~repro.sim.compiled.CompiledProgram` translates an IR module
once into Python functions that charge every operation's cycle cost
against a :class:`~repro.sim.cost.CostModel`, and reuses them for every
run.  :mod:`repro.sim.machine` holds the runtime helpers and the
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
