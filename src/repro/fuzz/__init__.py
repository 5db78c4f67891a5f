"""Differential fuzzing subsystem.

Randomized differential testing of the three execution paths the repo
maintains for every MATLAB program:

* the golden :class:`~repro.mlab.interp.MatlabInterpreter`,
* the compiled-closure cycle simulator,
* the gcc-compiled-and-executed emitted C (when gcc is on PATH).

:mod:`repro.fuzz.generator` emits seeded, well-typed random programs
over the supported subset (plus interpreter-only features in ``interp``
mode); :mod:`repro.fuzz.oracle` runs one program through every engine
and compares results with NaN-aware, dtype-aware tolerance;
:mod:`repro.fuzz.reducer` shrinks any diverging program to a minimal
reproducer; :mod:`repro.fuzz.cli` is the ``repro-fuzz`` entry point.
"""

from repro.fuzz.generator import GeneratedProgram, ProgramGenerator
from repro.fuzz.oracle import DifferentialOracle, Verdict
from repro.fuzz.reducer import reduce_program

__all__ = [
    "DifferentialOracle",
    "GeneratedProgram",
    "ProgramGenerator",
    "Verdict",
    "reduce_program",
]
