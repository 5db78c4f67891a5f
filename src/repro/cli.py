"""``repro-mc`` — the command-line compiler driver.

Examples::

    # Compile fir.m for the default SIMD ASIP and write fir.c
    repro-mc fir.m --args "double:1x256,double:1x16" -o fir.c

    # Baseline (MATLAB-Coder-style) code instead
    repro-mc fir.m --args "double:1x256,double:1x16" --baseline -o fir_base.c

    # Inspect the optimized IR and the selected custom instructions
    repro-mc fir.m --args "double:1x256,double:1x16" --dump-ir

    # List shipped processor descriptions
    repro-mc --list-processors
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from repro.asip.isa_library import available_processors
from repro.compiler import CompilerOptions, arg as make_arg, compile_source
from repro.errors import (EXIT_FAILURE, EXIT_INTERNAL, EXIT_OK, IsaError,
                          ReproError)
from repro.observe import TraceSession, trace as obs_trace
from repro.observe.hotspots import annotate_source
from repro.observe.metrics import (build_report, write_chrome_trace,
                                   write_report)
from repro.semantics.types import dtype_from_name


def parse_arg_spec(spec: str):
    """Parse one ``dtype:RxC`` argument spec (``cdouble`` = complex)."""
    spec = spec.strip()
    if ":" in spec:
        dtype_name, shape_text = spec.split(":", 1)
    else:
        dtype_name, shape_text = spec, "1x1"
    dtype_name = dtype_name.strip()
    is_complex = dtype_name.startswith("c") and \
        dtype_from_name(dtype_name[1:]) is not None
    if is_complex:
        dtype_name = dtype_name[1:]
    if dtype_from_name(dtype_name) is None:
        raise ValueError(f"unknown dtype in argument spec {spec!r}")
    try:
        rows_text, cols_text = shape_text.lower().split("x")
        shape = (int(rows_text), int(cols_text))
    except ValueError:
        raise ValueError(f"bad shape in argument spec {spec!r}; "
                         "expected ROWSxCOLS") from None
    return make_arg(shape, dtype=dtype_name, complex=is_complex)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mc",
        description="Retargetable MATLAB-to-C compiler for ASIPs "
                    "(DATE 2016 reproduction)")
    parser.add_argument("source", nargs="?", help="MATLAB source file (.m)")
    parser.add_argument("--args", default="",
                        help="comma-separated entry argument specs, e.g. "
                             "'double:1x256,cdouble:1x64,double:1x1'")
    parser.add_argument("--entry", default=None,
                        help="entry function name (default: first function)")
    parser.add_argument("--processor", default="vliw_simd_dsp",
                        help="target processor: a shipped description "
                             "name, 'simd_width:N' for the parametric "
                             "SIMD family, or a 'dse:{...}' design-"
                             "point spec")
    parser.add_argument("--baseline", action="store_true",
                        help="MATLAB-Coder-style baseline pipeline")
    parser.add_argument("--no-simd", action="store_true",
                        help="disable SIMD vectorization")
    parser.add_argument("--no-complex", action="store_true",
                        help="disable complex-instruction selection")
    parser.add_argument("-o", "--output", default=None,
                        help="write generated C to this file "
                             "(default: stdout)")
    parser.add_argument("--dump-ir", action="store_true",
                        help="print the final IR instead of C")
    parser.add_argument("--simulate", action="store_true",
                        help="run the compiled entry on deterministic "
                             "random inputs and print the cycle report")
    parser.add_argument("--compare-baseline", action="store_true",
                        help="with --simulate: also run the baseline "
                             "pipeline and report the speedup")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed for --simulate inputs")
    parser.add_argument("--backend",
                        choices=["compiled", "native", "all"],
                        default="compiled",
                        help="execution backend for --simulate: 'compiled' "
                             "(default; the cycle simulator), "
                             "'native' (emitted C built once into a "
                             "cached .so and called in-process; "
                             "host-hardware speed, no cycle accounting; "
                             "requires a host C compiler), or 'all' "
                             "(run both tiers in one invocation and "
                             "compare wall times; native is skipped "
                             "when no host C compiler is available)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the content-addressed compilation "
                             "cache")
    parser.add_argument("--profile", action="store_true",
                        help="print per-stage compilation timing (and "
                             "simulation wall time with --simulate)")
    parser.add_argument("--trace-json", metavar="FILE",
                        default=os.environ.get("REPRO_TRACE") or None,
                        help="write a Chrome trace-event JSON of the "
                             "compile (and simulation) to FILE; loadable "
                             "in Perfetto / chrome://tracing (default: "
                             "the REPRO_TRACE environment variable)")
    parser.add_argument("--remarks", nargs="?", const="all", default=None,
                        metavar="PASS",
                        help="print optimization remarks to stderr; give "
                             "a pass name (e.g. simd-vectorize) to "
                             "filter, omit for all passes")
    parser.add_argument("--print-changed", action="store_true",
                        help="print the IR to stderr after every pass "
                             "that changed a function")
    parser.add_argument("--hotspots", action="store_true",
                        help="with --simulate: profile per-line cycles "
                             "and print an annotated-source hotspot "
                             "table")
    parser.add_argument("--metrics-json", metavar="FILE", default=None,
                        help="write a machine-readable JSON report of "
                             "compile/simulation metrics to FILE")
    parser.add_argument("--metrics-prom", metavar="FILE", default=None,
                        help="write the run's metric registry as "
                             "Prometheus text exposition format to FILE")
    parser.add_argument("--events-jsonl", metavar="FILE", default=None,
                        help="write the run's structured event log (one "
                             "JSON object per line; span_id fields join "
                             "rows to the Chrome trace) to FILE")
    parser.add_argument("--emit-header", action="store_true",
                        help="print only the intrinsics header")
    parser.add_argument("--list-processors", action="store_true",
                        help="list shipped processor descriptions")
    parser.add_argument("--describe-processor", action="store_true",
                        help="print the target's instruction table")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Exit codes are pinned (see :mod:`repro.errors`): 0 success,
    1 operational failure, 2 usage error (argparse), 3 internal error.
    """
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        return _run(options, parser)
    except SystemExit:
        raise
    except OSError as exc:
        # Unwritable --output/--trace-json/--metrics-json and friends.
        print(f"repro-mc: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception:
        print("repro-mc: internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def _run(options, parser) -> int:
    if options.list_processors:
        for name in available_processors():
            print(name)
        return EXIT_OK

    # Resolve the processor spec up front so every path (describe,
    # emit-header, compile) reports problems through the pinned
    # exit-code contract: an unknown shipped name is an operational
    # failure (EXIT_FAILURE, as ever), while a malformed parameter
    # value in a parametric spec (simd_width:0, a dse:{...} point with
    # a negative cycle cost) is a usage error (EXIT_USAGE) with the
    # sourced diagnostic — never a traceback.
    from repro.service.jobs import resolve_processor
    try:
        processor = resolve_processor(options.processor)
    except KeyError as exc:
        print(f"repro-mc: error: {exc.args[0]}", file=sys.stderr)
        return EXIT_FAILURE
    except (IsaError, ValueError) as exc:
        parser.error(str(exc))

    if options.describe_processor:
        print(processor.summary())
        return EXIT_OK
    if options.emit_header and options.source is None:
        from repro.asip.header_gen import generate_header
        text = generate_header(processor)
        _write_output(text, options.output)
        return EXIT_OK
    if options.source is None:
        parser.error("a MATLAB source file is required")
    if options.hotspots and not options.simulate:
        parser.error("--hotspots requires --simulate")
    if options.backend == "all" and not options.simulate:
        parser.error("--backend all requires --simulate")
    if options.backend in ("native", "all") and options.hotspots:
        parser.error("--hotspots needs cycle accounting on a single "
                     "backend (use --backend compiled)")
    if options.backend in ("native", "all") and options.compare_baseline:
        parser.error("--compare-baseline reports cycle speedups on a "
                     "single backend (use --backend compiled)")

    try:
        with open(options.source) as handle:
            source = handle.read()
    except OSError as exc:
        print(f"repro-mc: cannot read {options.source}: {exc}",
              file=sys.stderr)
        return EXIT_FAILURE

    try:
        specs = [parse_arg_spec(s) for s in options.args.split(",") if s]
    except ValueError as exc:
        print(f"repro-mc: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    # One explicit session spans compile and simulation when any
    # observability output was requested; otherwise stay on the
    # disabled ambient session (zero overhead beyond the compile's
    # own built-in event collection).
    observing = bool(options.trace_json or options.metrics_json
                     or options.metrics_prom or options.events_jsonl
                     or options.print_changed or options.profile)
    session = TraceSession() if observing else obs_trace.current()
    session.print_changed = options.print_changed

    pipeline = CompilerOptions.baseline() if options.baseline \
        else CompilerOptions(simd=not options.no_simd,
                             complex_isel=not options.no_complex)
    with obs_trace.use(session):
        try:
            result = compile_source(source, args=specs, entry=options.entry,
                                    processor=processor,
                                    options=pipeline,
                                    filename=options.source,
                                    use_cache=not options.no_cache)
        except (ReproError, ValueError) as exc:
            # ValueError covers script-only sources ("source defines no
            # functions") — a user error, not an internal one.
            print(f"repro-mc: error: {exc}", file=sys.stderr)
            return EXIT_FAILURE

        if options.remarks is not None:
            _print_remarks(result, options.remarks)
        if options.profile:
            _print_profile(result)

        status, run = EXIT_OK, None
        if options.simulate:
            status, run = _simulate(result, source, specs, options)
            if options.profile:
                _print_sim_latencies(session)

    if options.trace_json:
        write_chrome_trace(options.trace_json, session.to_chrome_trace())
    if options.metrics_json:
        write_report(options.metrics_json,
                     build_report(result=result, run=run, session=session))
    if options.metrics_prom:
        from repro.observe.expo import write_prometheus
        write_prometheus(options.metrics_prom, session.metrics.snapshot())
    if options.events_jsonl:
        from repro.observe.events import write_events_jsonl
        write_events_jsonl(options.events_jsonl, session.events)
    if options.simulate:
        return status

    if options.dump_ir:
        text = result.ir_dump()
    elif options.emit_header:
        text = result.intrinsics_header()
    else:
        text = result.c_source()
    _write_output(text, options.output)
    return EXIT_OK


def _print_remarks(result, which: str) -> None:
    """Print (optionally pass-filtered) optimization remarks to stderr."""
    filename = result.source.filename
    shown = 0
    for remark in result.remarks:
        if which not in ("all", remark.pass_name):
            continue
        print(remark.format(filename), file=sys.stderr)
        shown += 1
    if shown == 0:
        scope = "" if which == "all" else f" from pass {which!r}"
        print(f"repro-mc: no remarks{scope}", file=sys.stderr)


def _print_profile(result) -> None:
    """Per-stage compilation timing collected by compile_source."""
    if not result.stage_times:
        print("profile: (no stage timings recorded)")
        return
    hits = getattr(result, "cache_hits", 0)
    if hits:
        print(f"compilation profile (cache hit x{hits}; timings are "
              "from the original compile):")
    else:
        print("compilation profile:")
    for stage, seconds in result.stage_times.items():
        print(f"  {stage:<14} {seconds * 1e3:8.2f} ms")


def _simulate(result, source: str, specs, options):
    """Run the compiled entry on random inputs; print the cycle report.

    Returns ``(exit_status, ExecutionResult | None)`` so the caller can
    fold the run into ``--metrics-json``.
    """
    import time

    import numpy as np

    from repro.sim.inputs import random_inputs

    inputs = random_inputs(result.module.entry_function, options.seed)

    if options.backend == "all":
        return _simulate_all(result, inputs, options)

    t0 = time.perf_counter()
    try:
        run = result.simulate(inputs, backend=options.backend,
                              hotspots=options.hotspots)
    except (ReproError, ValueError) as exc:
        print(f"repro-mc: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE, None
    sim_wall = time.perf_counter() - t0
    print(f"entry: {result.entry_name} on {result.processor.name} "
          f"(seed {options.seed})")
    if options.profile:
        print(f"simulation wall time ({options.backend}): "
              f"{sim_wall * 1e3:.2f} ms")
    if options.backend == "native":
        # The native tier runs the emitted C at host speed; it has no
        # cycle model, so report execution facts instead of cycles.
        from repro.native import stats as native_stats
        print(f"native run: {sim_wall * 1e3:.2f} ms wall "
              f"(cache: {native_stats()})")
        for index, value in enumerate(run.outputs):
            array = np.atleast_2d(np.asarray(value))
            print(f"  out{index}: shape {array.shape[0]}x{array.shape[1]} "
                  f"checksum {complex(array.astype(complex).sum()):.6g}")
        return EXIT_OK, run
    print(f"cycles: {run.report.total}")
    for category in sorted(run.report.by_category):
        print(f"  {category:<10} {run.report.by_category[category]}")
    if run.report.instruction_counts:
        print("custom instructions:")
        for name in sorted(run.report.instruction_counts):
            print(f"  {name:<20} x{run.report.instruction_counts[name]}")
    else:
        print("custom instructions: (none selected)")
    if options.hotspots:
        print()
        print(annotate_source(result.source, run.line_cycles))

    if options.compare_baseline:
        try:
            baseline = compile_source(source, args=specs,
                                      entry=options.entry,
                                      processor=result.processor,
                                      options=CompilerOptions.baseline(),
                                      use_cache=not options.no_cache)
            base_run = baseline.simulate(inputs, backend=options.backend)
        except (ReproError, ValueError) as exc:
            print(f"repro-mc: error: {exc}", file=sys.stderr)
            return EXIT_FAILURE, run
        speedup = base_run.report.total / max(run.report.total, 1)
        print(f"baseline cycles: {base_run.report.total}")
        print(f"speedup: {speedup:.2f}x")
    return EXIT_OK, run


def _simulate_all(result, inputs, options):
    """``--backend all``: run both execution tiers on the same inputs
    and compare wall times; the cycle report comes from the compiled
    run (the native tier agrees on values, not cycles).

    Returns ``(exit_status, ExecutionResult | None)`` like
    :func:`_simulate`; the returned run is the compiled-tier one.
    """
    import shutil
    import time

    import numpy as np

    print(f"entry: {result.entry_name} on {result.processor.name} "
          f"(seed {options.seed}, all backends)")
    # The cross-check tolerance is the fuzz oracle's gcc one
    # (repro.fuzz.oracle._TOLERANCE): the native tier runs through the
    # host libm, whose single-precision results drift from numpy's.
    single = any(np.asarray(v).dtype in (np.float32, np.complex64)
                 for v in inputs)
    rtol = 2e-4 if single else 1e-7
    first_run = None
    for backend in ("compiled", "native"):
        if backend == "native" and shutil.which("gcc") is None:
            print(f"  {backend:<10} skipped (no host C compiler)")
            continue
        t0 = time.perf_counter()
        try:
            run = result.simulate(inputs, backend=backend)
        except (ReproError, ValueError) as exc:
            print(f"repro-mc: error ({backend}): {exc}", file=sys.stderr)
            return EXIT_FAILURE, first_run
        wall = time.perf_counter() - t0
        cycles = run.report.total if run.report is not None else "-"
        print(f"  {backend:<10} {wall * 1e3:9.2f} ms wall   "
              f"cycles: {cycles}")
        if first_run is None:
            first_run = run
        else:
            for mine, theirs in zip(first_run.outputs, run.outputs):
                if not np.allclose(np.asarray(mine), np.asarray(theirs),
                                   rtol=rtol, atol=rtol):
                    print(f"repro-mc: error: {backend} outputs diverge "
                          "from the compiled tier", file=sys.stderr)
                    return EXIT_FAILURE, first_run
    report = first_run.report
    print(f"cycles (compiled): {report.total}")
    for category in sorted(report.by_category):
        print(f"  {category:<10} {report.by_category[category]}")
    return EXIT_OK, first_run


def _print_sim_latencies(session) -> None:
    """Per-backend ``simulate()`` call latency digests (``--profile``)."""
    digests = {name: digest
               for name, digest in session.metrics.summaries().items()
               if name.startswith("sim.") and name.endswith(".run_s")
               and digest.get("count")}
    if not digests:
        return
    print("simulate-call latency by backend:")
    for name, digest in sorted(digests.items()):
        backend = name[len("sim."):-len(".run_s")]
        print(f"  {backend:<10} n={digest['count']} "
              f"mean={digest['mean_s'] * 1e3:.2f} ms "
              f"p50={digest['p50_s'] * 1e3:.2f} ms "
              f"p99={digest['p99_s'] * 1e3:.2f} ms")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as handle:
            handle.write(text)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
