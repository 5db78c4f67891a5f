"""Shared test helpers: differential execution of MATLAB programs.

The central helper, :func:`check_program`, runs one MATLAB program four
ways — golden interpreter, simulated baseline IR, simulated optimized
IR, and (optionally) gcc-compiled generated C — and asserts they agree.
The cycle-report pins of ``tests/cycle_pins.json`` are read through
:func:`assert_cycles_pinned`.
Most correctness tests in this suite reduce to a call to it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.asip.model import CostTable, ProcessorDescription
from repro.compiler import CompilerOptions, compile_source
from repro.frontend.parser import parse
from repro.fuzz.generator import GeneratedProgram
from repro.ir.verifier import verify_module
from repro.mlab.interp import MatlabInterpreter

HAVE_GCC = shutil.which("gcc") is not None

requires_gcc = pytest.mark.skipif(not HAVE_GCC, reason="gcc not available")


def cost_variant(processor: ProcessorDescription) -> ProcessorDescription:
    """``processor`` with every scalar cost and every instruction's
    cycles raised, and nothing else changed."""
    costs = processor.costs
    return ProcessorDescription(
        name=processor.name, description=processor.description,
        costs=dataclasses.replace(costs, **{
            f.name: getattr(costs, f.name) + 1 + index
            for index, f in enumerate(dataclasses.fields(CostTable))}),
        instructions=[dataclasses.replace(instr, cycles=instr.cycles + 2)
                      for instr in processor.instructions])


def golden_outputs(source: str, entry: str, inputs: list, nargout: int = 1):
    interp = MatlabInterpreter(source)
    return interp.call(entry, list(inputs), nargout=nargout)


def compile_both(source: str, args, entry: str | None = None,
                 processor: str = "vliw_simd_dsp"):
    optimized = compile_source(source, args=args, entry=entry,
                               processor=processor)
    baseline = compile_source(source, args=args, entry=entry,
                              processor=processor,
                              options=CompilerOptions.baseline())
    verify_module(optimized.module)
    verify_module(baseline.module)
    return optimized, baseline


def assert_outputs_close(actual, expected, tol: float, context: str):
    actual = np.atleast_2d(np.asarray(actual))
    expected = np.atleast_2d(np.asarray(expected))
    assert actual.shape == expected.shape, \
        f"{context}: shape {actual.shape} != expected {expected.shape}"
    assert np.allclose(actual, expected, atol=tol, rtol=tol), \
        f"{context}: values differ (max abs err " \
        f"{np.max(np.abs(actual - expected)):.3e})\n" \
        f"actual={actual}\nexpected={expected}"


def check_program(source: str, args, inputs: list,
                  entry: str | None = None, nargout: int = 1,
                  tol: float = 1e-9, with_gcc: bool = False,
                  processor: str = "vliw_simd_dsp"):
    """Differential check; returns (optimized_result, optimized_outputs)."""
    optimized, baseline = compile_both(source, args, entry, processor)
    entry_name = entry or optimized.sprog.entry.func.name
    golden = golden_outputs(source, entry_name, inputs, nargout)

    run_opt = optimized.simulate(list(inputs))
    run_base = baseline.simulate(list(inputs))
    for index, expected in enumerate(golden):
        assert_outputs_close(run_opt.outputs[index], expected, tol,
                             f"optimized output #{index}")
        assert_outputs_close(run_base.outputs[index], expected, tol,
                             f"baseline output #{index}")
    if with_gcc and HAVE_GCC:
        from repro.backend.harness import run_via_gcc
        host = run_via_gcc(optimized, list(inputs))
        for index, expected in enumerate(golden):
            assert_outputs_close(host[index], expected, max(tol, 1e-7),
                                 f"gcc output #{index}")
    return optimized, run_opt.outputs


# ----------------------------------------------------------------------
# Cycle-report pins (tests/cycle_pins.json, see tests/test_cycle_pins.py)
# ----------------------------------------------------------------------

CYCLE_PINS = Path(__file__).with_name("cycle_pins.json")


def as_program(source: str, args, inputs: list,
               entry: str = "f") -> GeneratedProgram:
    """``source`` with its ``arg()`` types and concrete inputs in the
    fuzz corpus's JSON-ready form (complex values as [re, im] pairs)."""
    specs, values = [], []
    for mtype, value in zip(args, inputs):
        assert mtype.value is None, "pins hold no compile-time constants"
        rows, cols = mtype.shape.rows, mtype.shape.cols
        specs.append((mtype.dtype.name.lower(), mtype.is_complex,
                      rows, cols))
        array = np.asarray(value).reshape(rows, cols)
        if mtype.is_complex:
            array = np.stack([array.real, array.imag], axis=-1)
        values.append(array.astype(np.float64).tolist())
    function = next(f for f in parse(source).functions if f.name == entry)
    return GeneratedProgram(source=source, entry=entry, mode="compile",
                            seed=0, param_specs=specs,
                            input_values=values,
                            nargout=len(function.returns),
                            returns=list(function.returns))


def report_fields(run) -> dict:
    """The pinned fields of one simulation; ``line_cycles`` (JSON keys
    are strings) only when the run was profiled."""
    fields = {"total": run.report.total,
              "by_category": run.report.by_category,
              "instruction_counts": run.report.instruction_counts,
              "stdout": run.stdout}
    if run.line_cycles is not None:
        fields["line_cycles"] = {str(line): cycles for line, cycles
                                 in sorted(run.line_cycles.items())}
    return fields


@functools.cache
def cycle_pins() -> dict:
    return {record["name"]: record
            for record in json.loads(CYCLE_PINS.read_text())["records"]}


def assert_cycles_pinned(name: str, source: str, run) -> None:
    """``run``'s cycle report equals pin ``name``, which must have been
    recorded from the same ``source``."""
    record = cycle_pins()[name]
    assert record["program"]["source"] == source, \
        f"{name}: the pinned source differs from the test's"
    fields = report_fields(run)
    assert fields == {key: record["report"][key] for key in fields}, name


def pinned_processors() -> list[ProcessorDescription]:
    """The 66 processors whose intrinsics headers are pinned.

    The three shipped targets, the width family ``simd_dsp_w1`` ..
    ``simd_dsp_w64``, the 48 candidates of the default design space
    and the 8 of ``benchmarks/dse_smoke_space.json`` (which are also
    default candidates: 58 distinct names).
    """
    from repro.asip.isa_library import (available_processors,
                                        load_processor, simd_dsp_with_width)
    from repro.dse.space import DEFAULT_SPACE, load_space

    found = [load_processor(name) for name in available_processors()]
    found += [simd_dsp_with_width(1 << k) for k in range(7)]
    smoke = Path(__file__).parent.parent / "benchmarks" / \
        "dse_smoke_space.json"
    for space in (DEFAULT_SPACE, load_space(str(smoke))):
        found += [point.processor() for point in space.enumerate()]
    return found
