"""Unit tests for the ``repro-mc`` command-line interface."""

import pytest

from repro.cli import build_parser, main, parse_arg_spec
from repro.semantics.shapes import Shape
from repro.semantics.types import DType

FIR = """
function y = f(x, h)
y = conv(x, h);
end
"""


@pytest.fixture
def fir_file(tmp_path):
    path = tmp_path / "fir.m"
    path.write_text(FIR)
    return path


def test_parse_arg_spec_full():
    spec = parse_arg_spec("double:1x256")
    assert spec.dtype is DType.DOUBLE
    assert spec.shape == Shape(1, 256)


def test_parse_arg_spec_complex():
    spec = parse_arg_spec("cdouble:4x1")
    assert spec.is_complex and spec.shape == Shape(4, 1)


def test_parse_arg_spec_scalar_shorthand():
    spec = parse_arg_spec("single")
    assert spec.dtype is DType.SINGLE and spec.shape == Shape(1, 1)


def test_parse_arg_spec_errors():
    with pytest.raises(ValueError, match="dtype"):
        parse_arg_spec("quad:1x4")
    with pytest.raises(ValueError, match="shape"):
        parse_arg_spec("double:banana")


def test_list_processors(capsys):
    assert main(["--list-processors"]) == 0
    out = capsys.readouterr().out
    assert "vliw_simd_dsp" in out


def test_describe_processor(capsys):
    assert main(["--describe-processor", "--processor",
                 "generic_scalar_dsp"]) == 0
    out = capsys.readouterr().out
    assert "mac_f64" in out


def test_emit_header_standalone(capsys):
    assert main(["--emit-header"]) == 0
    out = capsys.readouterr().out
    assert "REPRO_ASIP_INTRINSICS_H" in out


def test_compile_to_stdout(fir_file, capsys):
    code = main([str(fir_file), "--args", "double:1x16,double:1x4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "void f_double_1x16_double_1x4(" in out


def test_compile_to_file(fir_file, tmp_path, capsys):
    out_file = tmp_path / "out.c"
    code = main([str(fir_file), "--args", "double:1x16,double:1x4",
                 "-o", str(out_file)])
    assert code == 0
    assert "asip" in out_file.read_text()


def test_dump_ir(fir_file, capsys):
    code = main([str(fir_file), "--args", "double:1x16,double:1x4",
                 "--dump-ir"])
    assert code == 0
    assert "func " in capsys.readouterr().out


def test_baseline_flag(fir_file, capsys):
    code = main([str(fir_file), "--args", "double:1x64,double:1x4",
                 "--baseline"])
    assert code == 0
    out = capsys.readouterr().out
    compiled = out[out.index("/* ---- compiled MATLAB functions"):]
    assert "asip_vmac" not in compiled


def test_no_simd_flag(fir_file, capsys):
    code = main([str(fir_file), "--args", "double:1x64,double:1x4",
                 "--no-simd"])
    assert code == 0
    out = capsys.readouterr().out
    compiled = out[out.index("/* ---- compiled MATLAB functions"):]
    assert "asip_vmac_f64x4" not in compiled


def test_missing_source_is_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_unreadable_file(capsys):
    assert main(["/nonexistent/path.m", "--args", "double"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_bad_arg_spec_reported(fir_file, capsys):
    assert main([str(fir_file), "--args", "blah:2x2"]) == 1
    assert "dtype" in capsys.readouterr().err


def test_compile_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.m"
    bad.write_text("function y = f(x)\ny = undefined_thing(x);\nend")
    assert main([str(bad), "--args", "double"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("line, where, char", [
    ("\u00e9t\u00e9 = x * 2;\ny = \u00e9t\u00e9;", "2:1", "\u00e9"),
    ("y = x + \u00b2;", "2:9", "\u00b2"),
])
def test_non_ascii_source_is_a_lex_error(tmp_path, capsys, line, where, char):
    bad = tmp_path / "bad.m"
    bad.write_text(f"function y = f(x)\n{line}\nend\n", encoding="utf-8")
    assert main([str(bad), "--args", "double"]) == 1
    err = capsys.readouterr().err
    assert f"bad.m:{where}: unexpected character '{char}'" in err


def test_parser_help_mentions_examples():
    parser = build_parser()
    assert "repro-mc" in parser.format_usage()


def test_simulate_prints_cycle_report(fir_file, capsys):
    code = main([str(fir_file), "--args", "double:1x32,double:1x4",
                 "--simulate"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cycles:" in out
    assert "custom instructions" in out


def test_simulate_compare_baseline(fir_file, capsys):
    code = main([str(fir_file), "--args", "double:1x32,double:1x4",
                 "--simulate", "--compare-baseline"])
    assert code == 0
    out = capsys.readouterr().out
    assert "speedup:" in out
    assert "baseline cycles:" in out


def test_simulate_deterministic_seed(fir_file, capsys):
    main([str(fir_file), "--args", "double:1x16,double:1x4",
          "--simulate", "--seed", "7"])
    first = capsys.readouterr().out
    main([str(fir_file), "--args", "double:1x16,double:1x4",
          "--simulate", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------
# Observability flags
# ---------------------------------------------------------------------

LOOPY = """
function y = g(x)
n = length(x);
y = zeros(1, n);
acc = 0;
for i = 1:n
    acc = acc + x(i) * x(i);
end
for i = 1:n
    y(i) = x(i) * acc;
end
end
"""


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loopy.m"
    path.write_text(LOOPY)
    return path


def test_trace_json_is_valid_chrome_trace(loop_file, tmp_path, capsys):
    import json

    trace_file = tmp_path / "trace.json"
    code = main([str(loop_file), "--args", "double:1x32",
                 "--simulate", "--trace-json", str(trace_file)])
    assert code == 0
    data = json.loads(trace_file.read_text())
    # Chrome trace-event JSON object format.
    assert isinstance(data["traceEvents"], list) and data["traceEvents"]
    assert data["displayTimeUnit"] == "ms"
    names = set()
    for event in data["traceEvents"]:
        assert event["ph"] in ("X", "C")
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        names.add(event["name"])
        if event["ph"] == "X":
            assert event["dur"] >= 0
    assert "compile" in names
    assert "simulate" in names


def test_trace_json_env_default(loop_file, tmp_path, capsys, monkeypatch):
    import json

    trace_file = tmp_path / "env_trace.json"
    monkeypatch.setenv("REPRO_TRACE", str(trace_file))
    assert main([str(loop_file), "--args", "double:1x32",
                 "-o", str(tmp_path / "out.c")]) == 0
    assert json.loads(trace_file.read_text())["traceEvents"]


def test_remarks_flag_prints_to_stderr(loop_file, capsys):
    code = main([str(loop_file), "--args", "double:1x32",
                 "--remarks", "-o", "/dev/null"])
    assert code == 0
    err = capsys.readouterr().err
    assert "[simd-vectorize]" in err
    assert "loopy.m:" in err


def test_remarks_flag_filters_by_pass(loop_file, capsys):
    code = main([str(loop_file), "--args", "double:1x32",
                 "--remarks", "no-such-pass", "-o", "/dev/null"])
    assert code == 0
    err = capsys.readouterr().err
    assert "no remarks" in err
    assert "[simd-vectorize]" not in err


def test_print_changed_dumps_ir(loop_file, capsys):
    code = main([str(loop_file), "--args", "double:1x32",
                 "--print-changed", "-o", "/dev/null"])
    assert code == 0
    err = capsys.readouterr().err
    assert ";; IR after" in err
    assert "func " in err


def test_hotspots_requires_simulate(loop_file, capsys):
    with pytest.raises(SystemExit):
        main([str(loop_file), "--args", "double:1x32", "--hotspots"])


def test_backend_all_runs_the_simulator_and_native_tiers(loop_file,
                                                         capsys):
    assert main([str(loop_file), "--args", "double:1x32", "--simulate",
                 "--backend", "all"]) == 0
    out = capsys.readouterr().out
    tiers = [line.split()[0] for line in out.splitlines()
             if line.startswith("  ") and ("wall" in line
                                           or "skipped" in line)]
    assert tiers == ["compiled", "native"]
    assert "cycles (compiled):" in out


def test_retired_reference_backend_is_usage_error(loop_file, capsys):
    # "reference" named the tree-walking simulator, which is gone.
    with pytest.raises(SystemExit) as info:
        main([str(loop_file), "--args", "double:1x32", "--simulate",
              "--backend", "reference"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_hotspots_prints_annotated_source(loop_file, capsys):
    code = main([str(loop_file), "--args", "double:1x32",
                 "--simulate", "--hotspots"])
    assert code == 0
    out = capsys.readouterr().out
    assert "hotspots:" in out
    assert "total cycles" in out
    # Every non-blank source line shows up in the table.
    assert "acc = acc + x(i) * x(i);" in out


def test_metrics_json_report(loop_file, tmp_path, capsys):
    import json

    metrics_file = tmp_path / "metrics.json"
    code = main([str(loop_file), "--args", "double:1x32",
                 "--simulate", "--hotspots",
                 "--metrics-json", str(metrics_file)])
    assert code == 0
    report = json.loads(metrics_file.read_text())
    assert report["schema"] == "repro-observe-report-v2"
    assert report["compile"]["entry"] == "g_double_1x32"
    assert report["simulation"]["cycles"] > 0
    assert report["simulation"]["hotspots"]
    assert any(row["cycles"] > 0 for row in report["simulation"]["hotspots"])


def test_sim_backend_env_var_is_ignored(loop_file, tmp_path, capsys,
                                        monkeypatch):
    """The execution backend comes from ``--backend`` alone: a
    ``REPRO_SIM_BACKEND`` environment variable changes nothing."""
    import json

    metrics_file = tmp_path / "metrics.json"
    monkeypatch.setenv("REPRO_SIM_BACKEND", "reference")
    assert main([str(loop_file), "--args", "double:1x32", "--simulate",
                 "--profile", "--metrics-json", str(metrics_file)]) == 0
    assert "simulation wall time (compiled)" in capsys.readouterr().out
    counters = json.loads(metrics_file.read_text())["counters"]
    assert counters["sim.runs.compiled"] == 1
    assert "sim.runs.reference" not in counters
    # A native default would reject --hotspots; the compiled one runs.
    monkeypatch.setenv("REPRO_SIM_BACKEND", "native")
    assert main([str(loop_file), "--args", "double:1x32", "--simulate",
                 "--hotspots"]) == 0
    assert "hotspots:" in capsys.readouterr().out


def test_profile_reports_cache_provenance(loop_file, capsys):
    args = [str(loop_file), "--args", "double:1x32", "--profile",
            "-o", "/dev/null"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "compilation profile:" in first
    assert main(args) == 0  # same process: in-memory cache hit
    second = capsys.readouterr().out
    assert "cache hit" in second
    assert "original compile" in second


# ---------------------------------------------------------------------
# Exit-code contract (repro.errors): 0 ok, 1 failure, 2 usage,
# 3 internal error.  Pinned here so scripts and CI can rely on them.
# ---------------------------------------------------------------------


def test_exit_code_constants():
    from repro.errors import (EXIT_FAILURE, EXIT_INTERNAL, EXIT_OK,
                              EXIT_USAGE)

    assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_INTERNAL) \
        == (0, 1, 2, 3)


def test_usage_error_exits_2(fir_file):
    with pytest.raises(SystemExit) as info:
        main([str(fir_file), "--no-such-flag"])
    assert info.value.code == 2


def test_unknown_processor_is_failure_not_traceback(fir_file, capsys):
    assert main([str(fir_file), "--args", "double:1x16,double:1x4",
                 "--processor", "no_such_dsp"]) == 1
    err = capsys.readouterr().err
    assert "no_such_dsp" in err
    assert "Traceback" not in err


def test_unwritable_output_is_failure(fir_file, capsys):
    assert main([str(fir_file), "--args", "double:1x16,double:1x4",
                 "-o", "/nonexistent/dir/out.c"]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    assert "Traceback" not in err


def test_unwritable_metrics_json_is_failure(fir_file, capsys):
    assert main([str(fir_file), "--args", "double:1x16,double:1x4",
                 "--metrics-json", "/nonexistent/dir/m.json",
                 "-o", "/dev/null"]) == 1


def test_unwritable_trace_json_is_failure(fir_file, capsys):
    assert main([str(fir_file), "--args", "double:1x16,double:1x4",
                 "--trace-json", "/nonexistent/dir/t.json",
                 "-o", "/dev/null"]) == 1


def test_internal_error_exits_3(fir_file, capsys, monkeypatch):
    import repro.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("injected defect")

    monkeypatch.setattr(cli_mod, "compile_source", boom)
    assert main([str(fir_file), "--args", "double:1x16,double:1x4"]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "injected defect" in err  # traceback is printed


# ---------------------------------------------------------------------
# --entry selection (multi-function files)
# ---------------------------------------------------------------------

MULTI_FN = """
function r = helper(v)
r = v .* v;
end

function y = main_kernel(x)
y = sum(helper(x));
end
"""


@pytest.fixture
def multi_fn_file(tmp_path):
    path = tmp_path / "multi.m"
    path.write_text(MULTI_FN)
    return path


def test_entry_not_first_compiles(multi_fn_file, capsys):
    assert main([str(multi_fn_file), "--args", "double:1x4",
                 "--entry", "main_kernel", "-o", "/dev/null"]) == 0


def test_entry_not_first_simulates(multi_fn_file, capsys):
    assert main([str(multi_fn_file), "--args", "double:1x4",
                 "--entry", "main_kernel", "--simulate"]) == 0
    out = capsys.readouterr().out
    assert "main_kernel" in out


def test_default_entry_is_first_function(multi_fn_file, capsys):
    # Without --entry the first function ('helper') is compiled.
    assert main([str(multi_fn_file), "--args", "double:1x4",
                 "--simulate"]) == 0
    out = capsys.readouterr().out
    assert "helper" in out


def test_unknown_entry_is_failure_with_hint(multi_fn_file, capsys):
    assert main([str(multi_fn_file), "--args", "double:1x4",
                 "--entry", "nope", "-o", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert "unknown function 'nope'" in err
    assert "helper" in err and "main_kernel" in err
    assert "Traceback" not in err


def test_entry_arity_mismatch_is_failure(multi_fn_file, capsys):
    assert main([str(multi_fn_file), "--args", "double:1x4,double:1x4",
                 "--entry", "main_kernel", "-o", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert "expects 1 argument(s), got 2" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------
# repro-fuzz exit codes and --jobs
# ---------------------------------------------------------------------


def test_fuzz_clean_run_exits_0(capsys):
    from repro.fuzz.cli import main as fuzz_main

    assert fuzz_main(["--seed", "0", "--count", "2",
                      "--backends", "compiled"]) == 0


def test_fuzz_unknown_backend_exits_2(capsys):
    from repro.fuzz.cli import main as fuzz_main

    with pytest.raises(SystemExit) as info:
        fuzz_main(["--backends", "nope", "--count", "1"])
    assert info.value.code == 2


def test_fuzz_gcc_requested_but_missing_exits_2(capsys):
    from repro.fuzz.cli import main as fuzz_main

    with pytest.raises(SystemExit) as info:
        fuzz_main(["--backends", "gcc", "--cc", "no-such-compiler",
                   "--count", "1"])
    assert info.value.code == 2
    assert "not on PATH" in capsys.readouterr().err


def test_fuzz_empty_backends_exits_2(capsys):
    from repro.fuzz.cli import main as fuzz_main

    with pytest.raises(SystemExit) as info:
        fuzz_main(["--backends", ",", "--count", "1"])
    assert info.value.code == 2


def test_fuzz_unwritable_metrics_exits_1(capsys):
    from repro.fuzz.cli import main as fuzz_main

    assert fuzz_main(["--count", "1", "--backends", "compiled",
                      "--metrics-json", "/nonexistent/dir/f.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_fuzz_internal_error_exits_3(capsys, monkeypatch):
    import repro.fuzz.cli as fuzz_cli

    class Boom:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("injected defect")

    monkeypatch.setattr(fuzz_cli, "DifferentialOracle", Boom)
    assert fuzz_cli.main(["--count", "1"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_fuzz_jobs_matches_serial(tmp_path, capsys):
    import json

    from repro.fuzz.cli import main as fuzz_main

    serial_json = tmp_path / "serial.json"
    par_json = tmp_path / "par.json"
    assert fuzz_main(["--seed", "3", "--count", "8",
                      "--backends", "compiled",
                      "--metrics-json", str(serial_json)]) == 0
    assert fuzz_main(["--seed", "3", "--count", "8", "--jobs", "2",
                      "--backends", "compiled",
                      "--metrics-json", str(par_json)]) == 0
    serial = json.loads(serial_json.read_text())
    par = json.loads(par_json.read_text())
    for key in ("programs", "ok", "skipped", "divergences", "crashes",
                "distinct_buckets", "failures", "engines"):
        assert serial[key] == par[key], key


def test_fuzz_jobs_must_be_positive(capsys):
    from repro.fuzz.cli import main as fuzz_main

    with pytest.raises(SystemExit) as info:
        fuzz_main(["--count", "1", "--jobs", "0"])
    assert info.value.code == 2


# ---------------------------------------------------------------------
# Parametric processor specs: malformed values are usage errors
# ---------------------------------------------------------------------

def test_parametric_simd_width_compiles(fir_file, capsys):
    assert main([str(fir_file), "--args", "double:1x16,double:1x4",
                 "--processor", "simd_width:8", "-o", "/dev/null"]) == 0


def test_simd_width_zero_is_usage_error(fir_file, capsys):
    with pytest.raises(SystemExit) as info:
        main([str(fir_file), "--args", "double:1x16,double:1x4",
              "--processor", "simd_width:0"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "simd_width:0" in err and "SIMD width" in err
    assert "Traceback" not in err


def test_simd_width_garbage_is_usage_error(fir_file, capsys):
    with pytest.raises(SystemExit) as info:
        main([str(fir_file), "--args", "double:1x16,double:1x4",
              "--processor", "simd_width:banana"])
    assert info.value.code == 2
    assert "must be an integer" in capsys.readouterr().err


def test_malformed_dse_point_is_usage_error(fir_file, capsys):
    bad = ('dse:{"simd_f32_lanes":4,"complex_unit":false,'
           '"scalar_mac":false,"clip_unit":false,"mac_cycles":-1,'
           '"mul_cycles":1,"registers":16}')
    with pytest.raises(SystemExit) as info:
        main([str(fir_file), "--args", "double:1x16,double:1x4",
              "--processor", bad])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "mac cycle" in err or "mac_cycles" in err
    assert "Traceback" not in err


def test_describe_parametric_processor(capsys):
    assert main(["--describe-processor",
                 "--processor", "simd_width:4"]) == 0
    assert "vmac_f32x4" in capsys.readouterr().out


# ---------------------------------------------------------------------
# repro-dse exit-code matrix
# ---------------------------------------------------------------------

@pytest.fixture
def dse_corpus(tmp_path):
    import json as _json

    kernel = tmp_path / "tiny.m"
    kernel.write_text("function y = tiny(x)\ny = x + 1.0;\nend\n")
    (tmp_path / "manifest.json").write_text(_json.dumps(
        {"tiny.m": {"args": "double:1x8", "entry": "tiny"}}))
    return tmp_path


def test_dse_smoke_run_writes_front(dse_corpus, tmp_path, capsys):
    import json as _json

    from repro.dse.cli import main as dse_main

    space = tmp_path / "space.json"
    space.write_text(_json.dumps({"name": "one",
                                  "scalar_mac": [True, False]}))
    out = tmp_path / "front.json"
    assert dse_main(["--corpus", str(dse_corpus),
                     "--space", str(space),
                     "--out", str(out), "--quiet"]) == 0
    doc = _json.loads(out.read_text())
    assert doc["schema"] == "repro-dse-front-v1"
    assert doc["evaluated"] == 2 and doc["front"]


def test_dse_malformed_width_is_usage_error(dse_corpus, tmp_path, capsys):
    import json as _json

    from repro.dse.cli import main as dse_main

    space = tmp_path / "space.json"
    space.write_text(_json.dumps({"name": "bad",
                                  "simd_f32_lanes": [0, 4]}))
    assert dse_main(["--corpus", str(dse_corpus),
                     "--space", str(space)]) == 2
    err = capsys.readouterr().err
    assert str(space) in err and "SIMD width" in err
    assert "Traceback" not in err


def test_dse_negative_cycle_cost_is_usage_error(dse_corpus, tmp_path,
                                                capsys):
    import json as _json

    from repro.dse.cli import main as dse_main

    space = tmp_path / "space.json"
    space.write_text(_json.dumps({"name": "bad", "mac_cycles": [-1]}))
    assert dse_main(["--corpus", str(dse_corpus),
                     "--space", str(space)]) == 2
    err = capsys.readouterr().err
    assert "mac_cycles" in err and "Traceback" not in err


def test_dse_bad_jobs_and_budget_are_usage_errors(dse_corpus, capsys):
    from repro.dse.cli import main as dse_main

    assert dse_main(["--corpus", str(dse_corpus), "--jobs", "0"]) == 2
    assert dse_main(["--corpus", str(dse_corpus), "--budget", "-1"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_dse_unreadable_corpus_is_failure(tmp_path, capsys):
    from repro.dse.cli import main as dse_main

    assert dse_main(["--corpus", str(tmp_path / "absent")]) == 1
    err = capsys.readouterr().err
    assert "cannot read corpus" in err and "Traceback" not in err


def test_dse_internal_error_exits_3(dse_corpus, capsys, monkeypatch):
    import repro.dse.engine as dse_engine

    class Boom:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("injected defect")

    monkeypatch.setattr(dse_engine, "DesignSpaceSearch", Boom)
    from repro.dse.cli import main as dse_main

    assert dse_main(["--corpus", str(dse_corpus)]) == 3
    assert "internal error" in capsys.readouterr().err
