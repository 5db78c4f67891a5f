"""``repro-dse`` — automatic ISA design-space exploration.

Examples::

    # Search the default 48-candidate space over the E1 corpus with
    # 8 workers and write the Pareto front
    repro-dse --corpus examples/mlab --jobs 8 --out front.json

    # A custom space, budget-capped to 12 seeded-sampled candidates
    repro-dse --corpus examples/mlab --space space.json \\
        --budget 12 --seed 7 --out front.json

The front document is **seed-deterministic**: the same corpus, space,
seed and budget produce a byte-identical ``--out`` file at any
``--jobs`` count (CI diffs ``--jobs 1`` against ``--jobs 8``).

Exit codes follow the pinned contract in :mod:`repro.errors`: 0
success, 1 operational failure (unreadable corpus, failed reference
run, unwritable output), 2 usage error — including malformed ISA
parameter values in the space description (SIMD width 0, negative
cycle cost), reported with a sourced diagnostic — and 3 internal
error.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from repro.errors import (EXIT_FAILURE, EXIT_INTERNAL, EXIT_OK,
                          EXIT_USAGE, IsaError, ReproError, SpaceError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dse",
        description="Search a parameterized ISA design space for "
                    "Pareto-optimal speedup-vs-cost processor designs "
                    "over a kernel corpus")
    parser.add_argument("--corpus", required=True, metavar="PATH",
                        help="kernel corpus: a manifest.json file or a "
                             "directory containing one (repro-batch "
                             "manifest format)")
    parser.add_argument("--space", default="default", metavar="SPACE",
                        help="design space: 'default' (the shipped "
                             "48-candidate space) or a JSON space "
                             "description file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for candidate "
                             "evaluation (default 1; the front is "
                             "identical at any count)")
    parser.add_argument("--budget", type=int, default=0, metavar="N",
                        help="max candidates to evaluate; a space "
                             "larger than the budget is sampled "
                             "deterministically from --seed "
                             "(default 0 = the whole space)")
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: drives budget sampling and "
                             "every kernel's simulation inputs "
                             "(default 0)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        metavar="SECONDS",
                        help="per-evaluation deadline (default 300)")
    parser.add_argument("--retries", type=int, default=2,
                        help="crash/stall strikes one evaluation may "
                             "burn before it is finalized as failed "
                             "(default 2)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the Pareto-front JSON document to "
                             "FILE (default: stdout)")
    parser.add_argument("--metrics-json", metavar="FILE", default=None,
                        help="write a machine-readable JSON report of "
                             "search metrics to FILE")
    parser.add_argument("--metrics-prom", metavar="FILE", default=None,
                        help="write the run's metric registry as "
                             "Prometheus text exposition to FILE")
    parser.add_argument("--events-jsonl", metavar="FILE", default=None,
                        help="write the run's structured event log "
                             "(search progress, per-candidate scores) "
                             "to FILE")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="shared on-disk compilation cache for "
                             "the workers (default: REPRO_CACHE_DIR)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable front "
                             "summary")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        return _run(options)
    except SystemExit:
        raise
    except (SpaceError, IsaError) as exc:
        # Malformed ISA parameter values (SIMD width 0, negative cycle
        # cost, unknown axis): a usage error with a sourced
        # diagnostic, per the pinned exit-code contract.
        print(f"repro-dse: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ReproError, ValueError) as exc:
        print(f"repro-dse: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"repro-dse: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception:
        print("repro-dse: internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def _run(options) -> int:
    from repro.dse.engine import DesignSpaceSearch, load_corpus
    from repro.dse.space import load_space
    from repro.observe import TraceSession, trace as obs_trace

    if options.jobs < 1:
        raise SpaceError(f"--jobs must be >= 1, got {options.jobs}")
    if options.budget < 0:
        raise SpaceError(f"--budget must be >= 0, got {options.budget}")

    space = load_space(options.space)
    # Materialize every candidate eagerly so a malformed parameter
    # combination is a sourced usage error before any worker spawns.
    for point in space.enumerate():
        point.processor()
    corpus = load_corpus(options.corpus)

    session = TraceSession()
    with obs_trace.use(session):
        search = DesignSpaceSearch(
            corpus, space, jobs=options.jobs, seed=options.seed,
            budget=options.budget, timeout=options.timeout,
            retries=options.retries, cache_dir=options.cache_dir)
        result = search.run()

    text = result.to_json()
    if options.out:
        from repro.observe.metrics import atomic_write_text
        atomic_write_text(options.out, text)
    else:
        sys.stdout.write(text)
    if not options.quiet:
        _print_summary(result, file=sys.stderr if not options.out
                       else sys.stdout)

    if options.metrics_json:
        _write_metrics(options.metrics_json, result, session)
    if options.metrics_prom:
        from repro.observe.expo import write_prometheus
        write_prometheus(options.metrics_prom, session.metrics.snapshot())
    if options.events_jsonl:
        from repro.observe.events import write_events_jsonl
        write_events_jsonl(options.events_jsonl, session.events)

    if not result.evaluated:
        print("repro-dse: error: every candidate evaluation failed",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _print_summary(result, file) -> None:
    evaluated = result.evaluated
    failed = len(result.candidates) - len(evaluated)
    print(f"searched {len(result.candidates)} candidates over "
          f"{len(result.corpus)} kernels "
          f"(space {result.space.name!r}, size {len(result.space)}, "
          f"seed {result.seed}): {len(evaluated)} ok, {failed} failed, "
          f"front size {len(result.front)}", file=file)
    if not result.front:
        return
    print(f"  {'design':<34} {'cost':>7} {'speedup':>8}", file=file)
    for point in result.front:
        print(f"  {point.point_id:<34} {point.cost:>7} "
              f"{point.speedup:>8.2f}", file=file)


def _write_metrics(path: str, result, session) -> None:
    import json

    from repro.observe.metrics import atomic_write_text

    report = {
        "schema": "repro-dse-report-v1",
        "space": result.space.name,
        "space_size": len(result.space),
        "seed": result.seed,
        "budget": result.budget,
        "workers": result.workers,
        "kernels": len(result.corpus),
        "candidates": len(result.candidates),
        "evaluated": len(result.evaluated),
        "front_size": len(result.front),
        "baseline_wall_s": round(result.baseline_wall_s, 6),
        "search_wall_s": round(result.search_wall_s, 6),
        "counters": session.metrics.counters,
        "metrics": {
            "snapshot": session.metrics.snapshot(),
            "summary": session.metrics.summaries(),
        },
    }
    atomic_write_text(path, json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
