"""Pins the emitted C and the simulated cycles of the benchmark corpus.

For each of the ten kernels of ``benchmarks/workloads.py`` and four
builds — the full optimizer on ``generic_scalar_dsp``,
``vliw_simd_dsp`` and ``wide_simd_dsp``, and
``CompilerOptions.baseline()`` on ``generic_scalar_dsp`` —
``emitted_c_goldens.json`` records the sha256 of ``c_source()``, the
simulated cycle report on the kernel's seed-0 inputs (``total`` as
``cycles``, ``by_category`` and ``instruction_counts``), the pass
pipeline's ``pass_stats`` (change count per pass and rounds per
function), the number of loops the SIMD vectorizer reported as
vectorized, the sha256 of the build's optimization remarks (their
``to_dict()`` list, in emission order), and the sha256 and node count
of the printed IR that ``lower_program`` builds, before any pass, in
the build's lowering mode.  A builder or pass refactor that claims to
keep behaviour must keep all 40 entries.

When a change is meant to alter the emitted C, regenerate the file
with this module's script entry point and review the diff:

    PYTHONPATH=src python tests/test_emitted_c_goldens.py \\
        > tests/emitted_c_goldens.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.frontend.parser import parse
from repro.frontend.source import SourceFile
from repro.ir import nodes as ir
from repro.ir.builder import lower_program
from repro.ir.printer import format_module
from repro.observe.remarks import PASSED
from repro.semantics.inference import specialize_program

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "perfbench"))
from layers import count_nodes  # noqa: E402  (the ir.nodes_lowered count)
from workloads import default_workloads  # noqa: E402

GOLDENS = Path(__file__).with_name("emitted_c_goldens.json")

#: build name -> (processor, options factory)
BUILDS = {
    "opt/generic_scalar_dsp": ("generic_scalar_dsp", CompilerOptions),
    "opt/vliw_simd_dsp": ("vliw_simd_dsp", CompilerOptions),
    "opt/wide_simd_dsp": ("wide_simd_dsp", CompilerOptions),
    "baseline/generic_scalar_dsp": ("generic_scalar_dsp",
                                    CompilerOptions.baseline),
}

KERNELS = {kernel.name: kernel for kernel in default_workloads()}


def lowered_module(kernel, mode: str) -> ir.IRModule:
    """``lower_program``'s module for ``kernel``, before any pass."""
    program = parse(kernel.source, "<string>")
    sprog = specialize_program(program, kernel.entry,
                               list(kernel.arg_types),
                               SourceFile(kernel.source, "<string>"))
    return lower_program(sprog, mode=mode)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compile_build(kernel_name: str, build: str):
    kernel = KERNELS[kernel_name]
    processor, options = BUILDS[build]
    return compile_source(kernel.source, kernel.arg_types,
                          entry=kernel.entry, processor=processor,
                          options=options(), use_cache=False)


def cycle_record(kernel_name: str, result) -> dict:
    """The golden fields one simulation of the build produces."""
    report = result.simulate(KERNELS[kernel_name].inputs(0)).report
    return {"cycles": report.total,
            "by_category": report.by_category,
            "instruction_counts": report.instruction_counts}


def build_record(kernel_name: str, build: str, result=None) -> dict:
    kernel = KERNELS[kernel_name]
    if result is None:
        result = compile_build(kernel_name, build)
    module = lowered_module(
        kernel, "naive" if build.startswith("baseline/") else "fused")
    return {"c_sha256": sha256(result.c_source()),
            **cycle_record(kernel_name, result),
            "pass_stats": result.pass_stats,
            "loops_vectorized": sum(
                1 for remark in result.remarks
                if remark.kind == PASSED
                and remark.pass_name == "simd-vectorize"),
            "remarks_sha256": sha256(json.dumps(
                [remark.to_dict() for remark in result.remarks])),
            "ir_sha256": sha256(format_module(module)),
            "ir_nodes": count_nodes(module)}


def current_table() -> dict:
    return {f"{name}/{build}": build_record(name, build)
            for name in KERNELS for build in BUILDS}


@pytest.mark.parametrize("build", list(BUILDS))
@pytest.mark.parametrize("kernel_name", list(KERNELS))
def test_emitted_c_matches_golden(kernel_name, build):
    expected = json.loads(GOLDENS.read_text())[f"{kernel_name}/{build}"]
    result = compile_build(kernel_name, build)
    assert build_record(kernel_name, build, result) == expected


def test_goldens_cover_exactly_the_corpus():
    assert set(json.loads(GOLDENS.read_text())) == {
        f"{name}/{build}" for name in KERNELS for build in BUILDS}


def test_goldens_hold_the_compile_corpus_totals():
    # The optimized vliw_simd_dsp builds are the ones the compile
    # benchmark counts (its baseline builds run no passes): 50 pass
    # rounds and 25 vectorized loops over the ten kernels.  Ten of
    # inv3x3's row operations read its input in place at stride 9 since
    # slice forwarding, and stay scalar; the complex(zeros, zeros) fills
    # of fft, channel_est and bf_weights vectorize since constant
    # element stores are forwarded, and qr_gs's two inlined col_dot
    # while loops since counted while loops become for loops.
    records = [record for key, record
               in json.loads(GOLDENS.read_text()).items()
               if key.endswith("/opt/vliw_simd_dsp")]
    assert len(records) == len(KERNELS)
    assert sum(n for record in records
               for name, n in record["pass_stats"].items()
               if name.startswith("rounds[")) == 50
    assert sum(record["loops_vectorized"] for record in records) == 25


def test_goldens_hold_the_lowered_node_total():
    # The compile benchmark lowers each kernel twice: fused for the
    # optimized vliw_simd_dsp tier and naive for the baseline
    # generic_scalar_dsp tier.  Its ``ir.nodes_lowered`` is this total.
    goldens = json.loads(GOLDENS.read_text())
    assert sum(goldens[f"{name}/{build}"]["ir_nodes"]
               for name in KERNELS
               for build in ("opt/vliw_simd_dsp",
                             "baseline/generic_scalar_dsp")) == 4382


if __name__ == "__main__":
    print(json.dumps(current_table(), indent=1, sort_keys=True))
