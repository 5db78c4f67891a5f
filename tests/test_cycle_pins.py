"""Pins the full cycle report of every simulated program the suite
vouches for.

``cycle_pins.json`` holds one record per run: the MATLAB source and
inputs (in the fuzz corpus's ``GeneratedProgram`` form, so a pin does
not depend on the fuzz generator staying unchanged), the processor,
the pipeline mode, and the simulator's report on those inputs:
``total``, ``by_category``, ``instruction_counts``, ``stdout`` and the
profiled run's ``line_cycles``.  The records cover:

* ``corpus/<name>`` — every compile-mode ``tests/fuzz_corpus/`` entry
  (the fuzz oracle's build: full optimizer, ``vliw_simd_dsp``);
* ``compiled_backend/<case>/<mode>`` — every fixed-source program of
  ``tests/test_compiled_backend.py``;
* ``reduction/n=<n>/<mode>`` (n in 1..20) and
  ``sliding_window/n=<n>,m=<m>/<mode>`` (n in 1..16, m in 1..6) — the
  whole shape space of its hypothesis families;
* ``elementwise/<i>/<mode>`` — a fixed sample of elementwise chains;
* ``workload/<name>`` — the ten benchmark kernels on their seed-3
  inputs (the hotspot test's runs);
* ``fuzz_seed/<seed>`` — every generator seed 0-199 in compile mode
  that compiles (the fresh fuzz batch CI runs).

Regenerate only for an intended change of cycle semantics, and review
the diff:

    PYTHONPATH=src python tests/test_cycle_pins.py > tests/cycle_pins.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (as_program, assert_cycles_pinned, cycle_pins,
                     report_fields)
from repro.compiler import arg, compile_source
from repro.errors import UnsupportedFeatureError
from repro.fuzz.generator import GeneratedProgram, ProgramGenerator
from repro.fuzz.reducer import load_reproducer

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from workloads import default_workloads  # noqa: E402

import test_compiled_backend as backend_cases  # noqa: E402

CORPUS = Path(__file__).parent / "fuzz_corpus"
FUZZ_SEEDS = range(200)


def catalogue():
    """(name, program, processor, mode) of every pinned run."""
    for path in sorted(CORPUS.glob("*.m")):
        program, _ = load_reproducer(CORPUS, path.stem)
        if program.mode == "compile":
            yield f"corpus/{path.stem}", program, "vliw_simd_dsp", \
                "optimized"
    for name, (program, processor) in backend_cases.CASES.items():
        for mode in backend_cases.MODES:
            yield f"compiled_backend/{name}/{mode}", program, processor, \
                mode
    families = [(f"reduction/n={n}", backend_cases.reduction_program(n, n))
                for n in range(1, 21)]
    families += [(f"sliding_window/n={n},m={m}",
                  backend_cases.sliding_window_program(n, m, 16 * m + n))
                 for n in range(1, 17) for m in range(1, 7)]
    for index, (chain, n) in enumerate(backend_cases.elementwise_sample()):
        rng = np.random.default_rng(index)
        families.append((f"elementwise/{index}", as_program(
            backend_cases.elementwise_source(chain),
            [arg((1, n)), arg((1, n))],
            [rng.standard_normal((1, n)), rng.standard_normal((1, n))])))
    for name, program in families:
        for mode in backend_cases.MODES:
            yield f"{name}/{mode}", program, "vliw_simd_dsp", mode
    for workload in default_workloads():
        yield f"workload/{workload.name}", as_program(
            workload.source, workload.arg_types, workload.inputs(seed=3),
            entry=workload.entry), "vliw_simd_dsp", "optimized"
    for seed in FUZZ_SEEDS:
        yield f"fuzz_seed/{seed}", ProgramGenerator(seed).generate(), \
            "vliw_simd_dsp", "optimized"


def compile_record(record: dict):
    program = GeneratedProgram.from_dict(record["program"])
    return program, compile_source(
        program.source, args=program.arg_specs(), entry=program.entry,
        processor=record["processor"],
        options=backend_cases.MODES[record["mode"]](), use_cache=False)


def current_records():
    """Every catalogue run, simulated now; a program that does not
    compile (an unsupported construct) has no record."""
    for name, program, processor, mode in catalogue():
        record = {"name": name, "processor": processor, "mode": mode,
                  "program": program.to_dict()}
        try:
            _, result = compile_record(record)
        except UnsupportedFeatureError:
            continue
        plain, profiled = (
            report_fields(result.simulate(program.inputs(),
                                          hotspots=hotspots))
            for hotspots in (False, True))
        assert plain == {key: profiled[key] for key in plain}, name
        record["report"] = profiled
        yield record


@pytest.mark.parametrize(
    "name", sorted(cycle_pins()) if __name__ != "__main__" else [])
def test_cycle_report_matches_pin(name):
    record = cycle_pins()[name]
    program, result = compile_record(record)
    for hotspots in (False, True):
        run = result.simulate(program.inputs(), hotspots=hotspots)
        assert_cycles_pinned(name, program.source, run)


def test_pins_cover_every_family():
    names = set(cycle_pins())
    groups = {}
    for name in names:
        groups.setdefault(name.split("/")[0], set()).add(name)
    assert len(groups["reduction"]) == 20 * 2
    assert len(groups["sliding_window"]) == 16 * 6 * 2
    assert len(groups["elementwise"]) == \
        len(backend_cases.elementwise_sample()) * 2
    assert groups["compiled_backend"] == {
        f"compiled_backend/{case}/{mode}"
        for case in backend_cases.CASES for mode in backend_cases.MODES}
    assert groups["workload"] == {
        f"workload/{w.name}" for w in default_workloads()}
    assert groups["corpus"] == {
        f"corpus/{path.stem}" for path in CORPUS.glob("*.m")
        if load_reproducer(CORPUS, path.stem)[0].mode == "compile"}
    assert {int(name.split("/")[1]) for name in groups["fuzz_seed"]} \
        <= set(FUZZ_SEEDS)


def test_fuzz_seed_pins_hold_the_generated_programs():
    """A generator change must regenerate the pins: each pinned seed's
    program is the one the fresh fuzz batch runs for that seed."""
    for name, record in cycle_pins().items():
        if name.startswith("fuzz_seed/"):
            seed = int(name.split("/")[1])
            generated = ProgramGenerator(seed).generate().to_dict()
            assert record["program"] == json.loads(json.dumps(generated)), \
                f"{name}: regenerate tests/cycle_pins.json"


if __name__ == "__main__":
    print('{"records": [')
    print(",\n".join(json.dumps(record, sort_keys=True)
                     for record in current_records()))
    print("]}")
