"""Differential fuzzing subsystem: generator, oracle, reducer, CLI.

The deterministic smoke test at the bottom is the tier-1 guard: a fixed
seed range must run through the multi-way oracle with zero divergences,
and every corpus reproducer (each minted from a real golden-model bug,
all since fixed) must agree across engines.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from helpers import requires_gcc
from repro.frontend.parser import parse
from repro.frontend.unparse import to_source
from repro.fuzz import (DifferentialOracle, GeneratedProgram,
                        ProgramGenerator, Verdict, reduce_program)
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.reducer import load_reproducer, write_reproducer

CORPUS = Path(__file__).parent / "fuzz_corpus"

SIM_ONLY = ["compiled"]


# ---------------------------------------------------------------------------
# Generator


def test_generator_is_deterministic():
    a = ProgramGenerator(1234).generate()
    b = ProgramGenerator(1234).generate()
    assert a.source == b.source
    assert a.input_values == b.input_values
    assert a.param_specs == b.param_specs


def test_generator_seeds_differ():
    sources = {ProgramGenerator(s).generate().source for s in range(12)}
    assert len(sources) > 8


def test_generated_programs_parse_and_roundtrip():
    for seed in range(20):
        prog = ProgramGenerator(seed).generate()
        tree = parse(prog.source)
        # Unparse -> parse -> unparse is a fixpoint.
        again = to_source(tree)
        assert to_source(parse(again)) == again


def test_interp_mode_uses_growth_features():
    sources = "".join(ProgramGenerator(s, mode="interp").generate().source
                      for s in range(40))
    assert "[]" in sources  # growth-from-empty appears somewhere


def test_compile_mode_reads_matrix_rows_and_columns():
    """Whole rows ``m(k, :)`` and columns ``m(:, k)`` of matrices appear
    as operands and as subfunction arguments."""
    slice_ = r"\b[vp]\d+\(([^():,]+, :|:, [^():,]+)\)"
    sources = [ProgramGenerator(s).generate().source for s in range(40)]
    assert any(re.search(r"\b[vp]\d+\([^():,]+, :\)", s) for s in sources)
    assert any(re.search(r"\b[vp]\d+\(:, [^():,]+\)", s) for s in sources)
    assert any(re.search(r"\bsf\d+\([^\n]*" + slice_, s) for s in sources)


def test_program_serialization_roundtrip():
    prog = ProgramGenerator(7).generate()
    clone = GeneratedProgram.from_dict(
        json.loads(json.dumps(prog.to_dict())))
    assert clone.source == prog.source
    assert clone.param_specs == prog.param_specs
    inputs, cloned = prog.inputs(), clone.inputs()
    assert len(inputs) == len(cloned)


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_smoke_sim_engines():
    oracle = DifferentialOracle(engines=SIM_ONLY)
    for seed in range(20):
        verdict = oracle.run(ProgramGenerator(seed).generate())
        assert verdict.ok, \
            f"seed {seed}: {verdict.status} ({verdict.engine}): " \
            f"{verdict.detail}"


def test_oracle_smoke_interp_mode():
    oracle = DifferentialOracle(engines=SIM_ONLY)
    for seed in range(10):
        prog = ProgramGenerator(seed, mode="interp").generate()
        verdict = oracle.run(prog)
        assert verdict.ok, \
            f"seed {seed}: {verdict.status} ({verdict.engine}): " \
            f"{verdict.detail}"


@requires_gcc
def test_oracle_smoke_gcc_engine():
    oracle = DifferentialOracle()
    assert "gcc" in oracle.engines
    for seed in (0, 38, 47):  # 38 and 47 are former gcc-engine crashers
        verdict = oracle.run(ProgramGenerator(seed).generate())
        assert verdict.ok, \
            f"seed {seed}: {verdict.status} ({verdict.engine}): " \
            f"{verdict.detail}"


def test_oracle_flags_real_divergence():
    """A program the engines genuinely disagree on must be reported."""
    prog = ProgramGenerator(0).generate()

    class LyingOracle(DifferentialOracle):
        def _golden(self, program):
            outputs = super()._golden(program)
            return [o + 1.0 for o in outputs]

    verdict = LyingOracle(engines=SIM_ONLY).run(prog)
    assert verdict.status == "divergence"
    assert verdict.key().startswith("divergence:")


# ---------------------------------------------------------------------------
# Reducer


def _marker_oracle(marker: str):
    class MarkerOracle:
        runs = 0

        def run(self, program):
            MarkerOracle.runs += 1
            if marker in program.source:
                return Verdict(status="divergence", engine="compiled",
                               detail="marker present", bucket=None,
                               engines_run=SIM_ONLY, golden=None)
            return Verdict(status="ok", engine=None, detail=None,
                           bucket=None, engines_run=SIM_ONLY, golden=None)

    return MarkerOracle()


def test_reducer_shrinks_to_relevant_statements():
    gen = ProgramGenerator(11)
    prog = gen.generate()
    oracle = _marker_oracle("v1 =")
    verdict = oracle.run(prog)
    assert verdict.status == "divergence"
    small = reduce_program(prog, verdict, oracle=oracle)
    assert "v1 =" in small.source
    assert len(small.source) <= len(prog.source)
    # The reduction must preserve the verdict key.
    assert oracle.run(small).key() == verdict.key()


def test_reducer_drops_unused_params():
    prog = GeneratedProgram(
        source=("function y = f(a, b)\n"
                "  y = a + 1;\n"
                "end\n"),
        entry="f", mode="compile", seed=0,
        param_specs=[("double", False, 1, 1), ("double", False, 1, 1)],
        input_values=[[1.5], [2.5]], nargout=1, returns=["y"])
    oracle = _marker_oracle("y = ")
    small = reduce_program(prog, oracle.run(prog), oracle=oracle)
    assert "b" not in small.source.split("\n")[0]
    assert len(small.param_specs) == 1


def test_reducer_drops_orphaned_subfunctions():
    prog = GeneratedProgram(
        source=("function y = f(x)\n"
                "  v1 = sf1(x);\n"
                "  y = x + 1;\n"
                "end\n"
                "\n"
                "function r = sf1(a)\n"
                "  r = a .* 2;\n"
                "end\n"
                "\n"
                "function r = sf2(a)\n"
                "  r = a - 1;\n"
                "end\n"),
        entry="f", mode="compile", seed=0,
        param_specs=[("double", False, 1, 1)],
        input_values=[[1.5]], nargout=1, returns=["y"])
    oracle = _marker_oracle("y = ")
    small = reduce_program(prog, oracle.run(prog), oracle=oracle)
    # sf2 was never called; sf1 becomes dead once 'v1 = sf1(x)' is
    # deleted — both must be gone from the reproducer.
    assert "sf2" not in small.source
    assert "sf1" not in small.source
    assert "y = " in small.source


def test_reducer_keeps_reachable_subfunctions():
    prog = GeneratedProgram(
        source=("function y = f(x)\n"
                "  y = sf1(x);\n"
                "end\n"
                "\n"
                "function r = sf1(a)\n"
                "  r = a .* 2;\n"
                "end\n"),
        entry="f", mode="compile", seed=0,
        param_specs=[("double", False, 1, 1)],
        input_values=[[1.5]], nargout=1, returns=["y"])
    oracle = _marker_oracle("sf1(x)")
    small = reduce_program(prog, oracle.run(prog), oracle=oracle)
    assert "function r = sf1(a)" in small.source


def test_reproducer_roundtrip(tmp_path):
    prog = ProgramGenerator(3).generate()
    verdict = Verdict(status="divergence", engine="compiled",
                      detail="demo", bucket=None,
                      engines_run=SIM_ONLY, golden=None)
    write_reproducer(tmp_path, "case0", prog, verdict)
    loaded, vdict = load_reproducer(tmp_path, "case0")
    assert loaded.source == prog.source
    assert loaded.inputs()[0] is not None
    assert vdict["status"] == "divergence"


# ---------------------------------------------------------------------------
# Seed corpus: every minted reproducer was a real bug; all are fixed.


def _corpus_names():
    return sorted(p.stem for p in CORPUS.glob("*.m"))


def test_corpus_is_populated():
    assert len(_corpus_names()) >= 8


def test_corpus_reads_verdicts_of_the_retired_reference_engine():
    # Seven reproducers were minted when a tree-walking "reference"
    # simulator was an oracle engine; their recorded verdicts stay as
    # history and must still load.
    retired = [name for name in _corpus_names()
               if load_reproducer(CORPUS, name)[1]["engine"] == "reference"]
    assert len(retired) == 7
    for name in retired:
        program, verdict = load_reproducer(CORPUS, name)
        assert program.source and verdict["status"] in ("crash",
                                                         "divergence")


@pytest.mark.parametrize("name", [n for n in _corpus_names()])
def test_corpus_entry_agrees(name):
    prog, verdict = load_reproducer(CORPUS, name)
    oracle = DifferentialOracle(engines=SIM_ONLY)
    result = oracle.run(prog)
    assert result.ok, \
        f"{name} regressed ({verdict['detail']!r}): " \
        f"{result.status} ({result.engine}): {result.detail}"


@requires_gcc
@pytest.mark.parametrize("name", ["complex_const_accumulator",
                                  "scalar_complex_param"])
def test_corpus_gcc_entries_agree(name):
    prog, _ = load_reproducer(CORPUS, name)
    result = DifferentialOracle().run(prog)
    assert result.ok, f"{name}: {result.status}: {result.detail}"


# ---------------------------------------------------------------------------
# CLI


def test_cli_clean_run(tmp_path, capsys):
    metrics = tmp_path / "fuzz.json"
    code = fuzz_main(["--seed", "0", "--count", "5",
                      "--backends", "compiled",
                      "--metrics-json", str(metrics)])
    assert code == 0
    report = json.loads(metrics.read_text())
    assert report["programs"] == 5
    assert report["divergences"] == 0
    assert report["crashes"] == 0
    out = capsys.readouterr().out
    assert "5 programs" in out


def test_cli_rejects_the_retired_reference_engine(capsys):
    with pytest.raises(SystemExit) as info:
        fuzz_main(["--count", "1", "--backends", "reference"])
    assert info.value.code == 2
    assert "unknown backend(s) reference" in capsys.readouterr().err


def test_cli_writes_reproducer_on_failure(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"

    def lying_golden(self, program):
        outputs = DifferentialOracle._golden_original(self, program)
        return [o + 1.0 for o in outputs]

    monkeypatch.setattr(DifferentialOracle, "_golden_original",
                        DifferentialOracle._golden, raising=False)
    monkeypatch.setattr(DifferentialOracle, "_golden", lying_golden)
    code = fuzz_main(["--seed", "0", "--count", "2",
                      "--backends", "compiled",
                      "--reduce", "--corpus", str(corpus)])
    assert code == 1
    assert list(corpus.glob("*.m")), "no reproducer written"
    assert list(corpus.glob("*.json")), "no sidecar written"
