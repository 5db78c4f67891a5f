"""``repro-fuzz`` — the differential fuzzing driver.

Examples::

    # 200 compile-mode programs through interpreter + the cycle
    # simulator + gcc (when on PATH); nonzero exit on any divergence
    repro-fuzz --seed 0 --count 200

    # Interpreter-only features (growth, logical indexing, matrix
    # iteration) under the interpreter-consistency oracle
    repro-fuzz --seed 7 --count 100 --mode interp

    # Reduce and save any failures as minimal reproducers
    repro-fuzz --seed 0 --count 500 --reduce --corpus failures/

    # Machine-readable run summary for CI
    repro-fuzz --seed 0 --count 50 --metrics-json fuzz.json
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from repro.errors import EXIT_FAILURE, EXIT_INTERNAL, EXIT_OK
from repro.fuzz.generator import ProgramGenerator
from repro.fuzz.oracle import (COMPILE_ENGINES, GCC_HARNESSES,
                               DifferentialOracle, Verdict, have_gcc)
from repro.fuzz.reducer import reduce_program, write_reproducer
from repro.observe import TraceSession, trace as obs_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Differential fuzzer: random well-typed MATLAB "
                    "programs through the golden interpreter, the "
                    "cycle simulator, and gcc-compiled emitted C")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; program i uses seed+i "
                             "(default 0)")
    parser.add_argument("--count", type=int, default=100,
                        help="number of programs to generate "
                             "(default 100)")
    parser.add_argument("--mode", choices=["compile", "interp"],
                        default="compile",
                        help="'compile': differential across engines; "
                             "'interp': interpreter-only features under "
                             "consistency oracles")
    parser.add_argument("--backends", default=None,
                        help="comma-separated subset of "
                             f"{','.join(COMPILE_ENGINES)} to compare "
                             "against the interpreter (default: all "
                             "available)")
    parser.add_argument("--processor", default="vliw_simd_dsp",
                        help="target processor description name")
    parser.add_argument("--cc", default="gcc",
                        help="host C compiler for the gcc engine")
    parser.add_argument("--harness", choices=list(GCC_HARNESSES),
                        default="native",
                        help="gcc-engine harness: 'native' (default; "
                             "one cached .so per program, called "
                             "in-process) or 'exec' (legacy per-call "
                             "main()-wrapper executable with stdout "
                             "parsing)")
    parser.add_argument("--reduce", action="store_true",
                        help="delta-debug each failure to a minimal "
                             "reproducer")
    parser.add_argument("--corpus", metavar="DIR", default=None,
                        help="write failing programs (reduced when "
                             "--reduce) as NAME.m + NAME.json replay "
                             "sidecars into DIR")
    parser.add_argument("--max-failures", type=int, default=10,
                        help="stop after this many distinct failures "
                             "(default 10)")
    parser.add_argument("--metrics-json", metavar="FILE", default=None,
                        help="write a machine-readable JSON summary of "
                             "the run to FILE")
    parser.add_argument("--print-programs", action="store_true",
                        help="print every generated program to stderr "
                             "(debugging the generator; forces --jobs 1)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes; seeds are sharded and "
                             "results merged in seed order (default 1)")
    return parser


def _parse_engines(options, parser) -> "list[str] | None":
    """Validate --backends; unavailable explicit requests are an error
    (silently comparing against nothing would report success while
    verifying nothing)."""
    if options.backends is None:
        return None
    engines = [e.strip() for e in options.backends.split(",")
               if e.strip()]
    unknown = [e for e in engines if e not in COMPILE_ENGINES]
    if unknown:
        parser.error(f"unknown backend(s) {', '.join(unknown)}; "
                     f"expected a subset of "
                     f"{', '.join(COMPILE_ENGINES)}")
    if options.mode == "compile":
        missing = [e for e in engines
                   if e == "gcc" and not have_gcc(options.cc)]
        if missing:
            parser.error(f"backend 'gcc' requested but "
                         f"'{options.cc}' is not on PATH")
        if not engines:
            parser.error("--backends resolved to an empty engine set; "
                         "nothing to compare against the interpreter")
    return engines


def _handle_failure(program, verdict, seed: int, options, oracle,
                    seen_buckets: "set[str]",
                    failures: "list[dict]") -> bool:
    """Record one interesting verdict; print, dedup, reduce, write the
    reproducer.  Returns True when the distinct-bucket budget is
    exhausted and the run should stop."""
    key = verdict.key()
    fresh = key not in seen_buckets
    seen_buckets.add(key)
    print(f"seed {seed}: {verdict.status} "
          f"[{verdict.engine}] {verdict.detail}"
          + ("" if fresh else " (duplicate bucket)"))
    if options.reduce and fresh:
        program = reduce_program(program, verdict, oracle)
    if options.corpus and fresh:
        path = write_reproducer(options.corpus,
                                f"seed{seed}", program, verdict)
        print(f"  reproducer: {path}")
    failures.append({
        "seed": seed,
        "status": verdict.status,
        "engine": verdict.engine,
        "detail": verdict.detail,
        "bucket": verdict.bucket,
        "source": program.source,
    })
    if len(seen_buckets) >= options.max_failures:
        print(f"stopping after {options.max_failures} distinct "
              "failure buckets")
        return True
    return False


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        return _run(options, parser)
    except SystemExit:
        raise
    except OSError as exc:
        print(f"repro-fuzz: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception:
        print("repro-fuzz: internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def _run(options, parser) -> int:
    engines = _parse_engines(options, parser)
    if options.jobs < 1:
        parser.error("--jobs must be >= 1")
    jobs = 1 if options.print_programs else min(options.jobs,
                                                max(options.count, 1))

    session = TraceSession()
    oracle = DifferentialOracle(engines=engines,
                                processor=options.processor,
                                cc=options.cc,
                                harness=options.harness)
    failures: list[dict] = []
    seen_buckets: set[str] = set()
    shard_metrics: "dict | None" = None

    with obs_trace.use(session):
        if options.mode == "compile" and oracle.engines:
            print(f"engines: interp vs {', '.join(oracle.engines)}")
        elif options.mode == "compile":
            print("engines: (none available beyond the interpreter)")
        if jobs > 1:
            from repro.fuzz.parallel import run_sharded
            records, _, shard_metrics = run_sharded(
                jobs, options.seed, options.count, options.mode,
                engines, options.processor, options.cc,
                options.harness)
            # Same streaming semantics as the serial loop, applied to
            # the seed-ordered merge: dedup, reduce, and corpus writes
            # happen here in the parent; the program is regenerated
            # from its seed (generation is deterministic).
            for record in records:
                program = ProgramGenerator(
                    record["seed"], mode=options.mode).generate()
                verdict = Verdict(status=record["status"],
                                  engine=record["engine"],
                                  detail=record["detail"],
                                  bucket=record["bucket"])
                if _handle_failure(program, verdict, record["seed"],
                                   options, oracle, seen_buckets,
                                   failures):
                    break
        else:
            for index in range(options.count):
                seed = options.seed + index
                generator = ProgramGenerator(seed, mode=options.mode)
                program = generator.generate()
                if options.print_programs:
                    print(f"% seed {seed}\n{program.source}",
                          file=sys.stderr)
                verdict = oracle.run(program)
                if not verdict.interesting:
                    continue
                if _handle_failure(program, verdict, seed, options,
                                   oracle, seen_buckets, failures):
                    break

    # One registry covering serial work (this process's session) plus
    # every worker shard — counters and engine-latency histograms merge
    # exactly.
    registry = session.metrics
    registry.merge(shard_metrics)
    counters = registry.counters
    programs = counters.get("fuzz.programs", 0)
    summary = {
        "seed": options.seed,
        "count": options.count,
        "mode": options.mode,
        "engines": list(oracle.engines) if options.mode == "compile"
        else ["interp"],
        "programs": programs,
        "ok": counters.get("fuzz.ok", 0),
        "skipped": counters.get("fuzz.skip", 0),
        "divergences": counters.get("fuzz.divergence", 0),
        "crashes": counters.get("fuzz.crash", 0),
        "distinct_buckets": len(seen_buckets),
        "failures": failures,
        "counters": dict(sorted(counters.items())),
        "metrics": {
            "snapshot": registry.snapshot(),
            "summary": registry.summaries(),
        },
        "remarks": [f"{r.pass_name}: {r.message}"
                    for r in session.remarks],
    }
    print(f"{programs} programs: {summary['ok']} ok, "
          f"{summary['skipped']} skipped, "
          f"{summary['divergences']} divergences, "
          f"{summary['crashes']} crashes")
    if options.metrics_json:
        from repro.observe.metrics import atomic_write_text
        atomic_write_text(
            options.metrics_json,
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_FAILURE if failures else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
