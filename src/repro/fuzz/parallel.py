"""Process-parallel fuzzing: seed-range shards over a worker pool.

The differential oracle is embarrassingly parallel in the seed — each
program is generated, executed, and judged independently — so
``repro-fuzz --jobs N`` slices the seed range into contiguous shards
and fans them out over a ``ProcessPoolExecutor``.  Each shard returns
plain data (failure records + a metrics snapshot carrying its
counters); the parent merges them **in seed order**, so bucket dedup,
``--max-failures`` accounting, and the metrics report are
byte-equivalent to a serial run over the same seeds (modulo the
early-stop point, which a parallel run applies after the fact to the
merged, ordered failure list).

Reduction and corpus writing stay in the parent: fresh failures are
regenerated from their seed (generation is deterministic) and re-judged
there, which keeps the workers free of filesystem side effects.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.observe import trace as obs_trace
from repro.observe.telemetry import MetricsRegistry
from repro.observe.trace import TraceSession

#: Shards per worker: small enough to amortize fork cost, large enough
#: to balance load when one shard draws slow programs.
_SHARDS_PER_WORKER = 4


def run_shard(base_seed: int, start: int, count: int, mode: str,
              engines: "list[str] | None", processor: str,
              cc: str, harness: str = "native") -> dict:
    """Run programs ``base_seed + start .. + start + count - 1``.

    Returns plain data only: per-failure records (with the seed, so the
    parent can regenerate the program) and the shard session's metrics
    snapshot (counters included).
    """
    from repro.fuzz.generator import ProgramGenerator
    from repro.fuzz.oracle import DifferentialOracle

    oracle = DifferentialOracle(engines=engines, processor=processor,
                                cc=cc, harness=harness)
    session = TraceSession()
    failures: list[dict] = []
    with obs_trace.use(session):
        for index in range(start, start + count):
            seed = base_seed + index
            program = ProgramGenerator(seed, mode=mode).generate()
            verdict = oracle.run(program)
            if not verdict.interesting:
                continue
            failures.append({
                "seed": seed,
                "status": verdict.status,
                "engine": verdict.engine,
                "detail": verdict.detail,
                "bucket": verdict.bucket,
                "source": program.source,
            })
    return {
        "start": start,
        "count": count,
        "engines": list(oracle.engines),
        "failures": failures,
        "metrics": session.metrics.snapshot(),
    }


def run_sharded(jobs: int, base_seed: int, count: int, mode: str,
                engines: "list[str] | None", processor: str,
                cc: str, harness: str = "native") \
        -> "tuple[list[dict], list[str], dict]":
    """Fan the seed range out over ``jobs`` workers.

    Returns ``(failures_in_seed_order, engines,
    merged_metrics_snapshot)``.  The metrics snapshot is the
    associative merge of every shard's registry
    (:mod:`repro.observe.telemetry`), so counters and engine-latency
    histograms aggregate exactly as a serial run would have recorded
    them.
    """
    shard_count = max(1, min(jobs * _SHARDS_PER_WORKER, count))
    bounds = []
    base, extra = divmod(count, shard_count)
    start = 0
    for index in range(shard_count):
        size = base + (1 if index < extra else 0)
        if size:
            bounds.append((start, size))
        start += size

    failures: list[dict] = []
    shard_engines: list[str] = []
    registry = MetricsRegistry()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        shards = pool.map(
            run_shard,
            *zip(*[(base_seed, s, n, mode, engines, processor, cc,
                    harness)
                   for s, n in bounds]))
        for shard in shards:  # map() preserves submission order
            shard_engines = shard["engines"]
            failures.extend(shard["failures"])
            registry.merge(shard["metrics"])
    failures.sort(key=lambda f: f["seed"])
    return failures, shard_engines, registry.snapshot()
