"""Shared fixtures and the paper-style table reporter.

Every experiment registers its result rows through ``record_row``; at
the end of the session the rows are printed grouped by experiment, in
the layout of the paper's tables, and also written to
``benchmarks/results/<experiment>.txt`` for EXPERIMENTS.md.

Performance-trajectory tracking: tests measuring executor wall time
register per-kernel entries through ``record_bench``; at session end
they are written machine-readably to ``benchmarks/results/BENCH_e1.json``
(per-kernel simulator wall time, cycle counts, and speedups) so future
changes can be checked against the recorded trajectory.

Native-tier trajectory: tests measuring the in-process ``.so`` tier
register entries through ``record_native_bench``; they are written to
``benchmarks/results/BENCH_native.json`` (per-kernel wall time for the
simulator and the native tier, cold vs warm native cache).

Parallel pre-warm: ``pytest benchmarks --jobs N`` compiles every
(kernel, processor, options) combination the experiments request into
a shared on-disk compilation cache (``REPRO_CACHE_DIR``) through
:class:`repro.service.CompileService` before the first test runs, so
the serially-measured experiments open on disk hits instead of cold
compiles.  The default-option jobs also carry ``warm_native=True`` so
the workers publish each kernel's native ``.so`` into the sibling
``<cache>/native`` store, which the parent process then points its own
native cache at — the native-tier benchmarks open warm too.
"""

from __future__ import annotations

import json
import os
import platform
from collections import defaultdict
from pathlib import Path

import pytest

_RESULTS: dict[str, list[dict]] = defaultdict(list)
_HEADERS: dict[str, list[str]] = {}
_BENCH: dict[str, dict] = {}
_NATIVE_BENCH: dict[str, dict] = {}
_SERVE_BENCH: dict[str, dict] = {}
_DSE_BENCH: dict[str, dict] = {}

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_e1.json"
BENCH_NATIVE_JSON = RESULTS_DIR / "BENCH_native.json"
BENCH_SERVE_JSON = RESULTS_DIR / "BENCH_serve.json"
BENCH_DSE_JSON = RESULTS_DIR / "BENCH_dse.json"


#: Textual arg specs matching each workload's ``arg_types`` at the
#: default scale (same vocabulary as ``repro-mc --args`` and
#: ``examples/mlab/manifest.json``), so the pre-warm populates the
#: exact cache keys the experiments will ask for.
_PREWARM_SPECS = {
    "fir": ["single:1x256", "single:1x32"],
    "iir_biquad": ["double:1x256", "double:1x3", "double:1x3"],
    "cdot": ["cdouble:1x256", "cdouble:1x256"],
    "fft_spectrum": ["double:1x128"],
    "matmul": ["single:32x32", "single:32x32"],
    "xcorr_kernel": ["single:1x128", "single:1x256"],
    "channel_est": ["cdouble:1x128", "cdouble:1x128"],
    "qr_gs": ["double:12x12"],
    "inv3x3": ["double:9x64"],
    "bf_weights": ["cdouble:1x64", "double:1x1"],
}

_BASELINE_OPTIONS = {"mode": "baseline", "scalar_opt": False,
                     "inline": False, "simd": False,
                     "complex_isel": False, "scalar_mac": False}

#: E6 sweeps these kernels over parametric SIMD widths.
_SWEEP_KERNELS = ("fir", "matmul", "xcorr")
_SWEEP_WIDTHS = (2, 4, 8, 16)


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", type=int, default=0, dest="repro_jobs",
        help="pre-warm a shared compilation cache with this many "
             "worker processes before the experiments run (0 = off)")


@pytest.fixture(scope="session", autouse=True)
def _prewarm_compile_cache(request, tmp_path_factory):
    jobs = request.config.getoption("repro_jobs")
    if jobs < 1:
        yield
        return
    from workloads import default_workloads

    from repro.service import CompileJob, CompileService, next_job_id

    created = not os.environ.get("REPRO_CACHE_DIR")
    if created:
        os.environ["REPRO_CACHE_DIR"] = str(
            tmp_path_factory.mktemp("repro-cache"))
    cache_dir = os.environ["REPRO_CACHE_DIR"]

    combos = []
    for workload in default_workloads():
        processors = ["vliw_simd_dsp"]
        if workload.name in _SWEEP_KERNELS:
            processors += [f"simd_width:{w}" for w in _SWEEP_WIDTHS]
        for processor in processors:
            for options in ({}, dict(_BASELINE_OPTIONS)):
                combos.append(CompileJob(
                    job_id=next_job_id(), source=workload.source,
                    args=list(_PREWARM_SPECS[workload.entry]),
                    entry=workload.entry, processor=processor,
                    options=options, filename=f"{workload.entry}.m",
                    timeout=300.0,
                    # Publish the native .so alongside the C artifact so
                    # the native-tier benchmarks open warm (full-optimizer
                    # configs only — those are what the experiments run).
                    warm_native=not options))

    # Point this (parent) process at the same native store the workers
    # publish into, so simulate(backend="native") below opens on disk
    # hits instead of cold gcc builds.
    from repro import native
    native.configure(cache_dir=os.path.join(cache_dir, "native"))

    with CompileService(jobs=jobs, cache_dir=cache_dir) as service:
        batch = service.compile_batch(combos)
    failed = batch.failed()
    line = (f"pre-warmed {cache_dir} with "
            f"{len(combos) - len(failed)}/{len(combos)} compilations "
            f"({jobs} workers, {batch.wall_s:.1f}s)")
    if failed:
        line += "; failed: " + ", ".join(
            f"{r.job_id} [{r.status}]" for r in failed)
    print(line)
    yield
    if created:
        del os.environ["REPRO_CACHE_DIR"]


@pytest.fixture
def record_row():
    """Callable: record_row(experiment, headers, **row)."""

    def record(experiment: str, headers: list[str], **row) -> None:
        _HEADERS[experiment] = headers
        _RESULTS[experiment].append(row)

    return record


@pytest.fixture
def record_bench():
    """Callable: record_bench(kernel, **fields).

    Fields accumulate per kernel (later calls update earlier ones), and
    the merged records land in ``BENCH_e1.json`` at session end.
    """

    def record(kernel: str, **fields) -> None:
        _BENCH.setdefault(kernel, {"kernel": kernel}).update(fields)

    return record


@pytest.fixture
def record_native_bench():
    """Callable: record_native_bench(kernel, **fields).

    Same accumulate-per-kernel contract as ``record_bench``; merged
    records land in ``BENCH_native.json`` at session end.
    """

    def record(kernel: str, **fields) -> None:
        _NATIVE_BENCH.setdefault(kernel, {"kernel": kernel}).update(fields)

    return record


@pytest.fixture
def record_serve_bench():
    """Callable: record_serve_bench(phase, **fields).

    Same accumulate-per-row contract as ``record_bench`` (rows are load
    phases, not kernels); merged records land in ``BENCH_serve.json``
    at session end.  Latency fields follow the ``*_wall_s`` naming so
    ``repro-stats check`` gates them against the committed trajectory.
    """

    def record(phase: str, **fields) -> None:
        _SERVE_BENCH.setdefault(phase, {"kernel": phase}).update(fields)

    return record


@pytest.fixture
def record_dse_bench():
    """Callable: record_dse_bench(phase, **fields).

    Same accumulate-per-row contract as ``record_bench`` (rows are
    search phases: reference measurement, candidate evaluation);
    merged records land in ``BENCH_dse.json`` at session end.  Wall
    times follow the ``*_wall_s`` naming so ``repro-stats check``
    gates them against the committed trajectory.
    """

    def record(phase: str, **fields) -> None:
        _DSE_BENCH.setdefault(phase, {"kernel": phase}).update(fields)

    return record


def _format_table(experiment: str) -> str:
    headers = _HEADERS[experiment]
    rows = _RESULTS[experiment]
    widths = [max(len(h), *(len(str(r.get(h, ""))) for r in rows))
              for h in headers]
    lines = [experiment]
    lines.append("  " + "  ".join(h.ljust(w)
                                  for h, w in zip(headers, widths)))
    lines.append("  " + "  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  " + "  ".join(
            str(row.get(h, "")).ljust(w) for h, w in zip(headers, widths)))
    return "\n".join(lines)


def _write_bench_json() -> None:
    kernels = [_BENCH[name] for name in sorted(_BENCH)]
    comp = sum(k.get("compiled_wall_s", 0.0) for k in kernels)
    payload = {
        "experiment": "E1",
        "python": platform.python_version(),
        "kernels": kernels,
        "aggregate": {"compiled_wall_s": round(comp, 6)},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def _write_native_bench_json() -> None:
    kernels = [_NATIVE_BENCH[name] for name in sorted(_NATIVE_BENCH)]
    comp = sum(k.get("compiled_wall_s", 0.0) for k in kernels)
    nat = sum(k.get("native_warm_wall_s", 0.0) for k in kernels)
    payload = {
        "experiment": "native-tier",
        "python": platform.python_version(),
        "kernels": kernels,
        "aggregate": {
            "compiled_wall_s": round(comp, 6),
            "native_warm_wall_s": round(nat, 6),
            "native_speedup": round(comp / nat, 2) if nat else None,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_NATIVE_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def _write_serve_bench_json() -> None:
    phases = [_SERVE_BENCH[name] for name in sorted(_SERVE_BENCH)]
    requests = sum(int(p.get("requests", 0)) for p in phases)
    shed = sum(int(p.get("shed", 0)) for p in phases)
    payload = {
        "experiment": "serve-load",
        "python": platform.python_version(),
        "kernels": phases,
        "aggregate": {
            "requests": requests,
            "shed": shed,
            "shed_rate": round(shed / requests, 4) if requests else None,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_SERVE_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def _write_dse_bench_json() -> None:
    phases = [_DSE_BENCH[name] for name in sorted(_DSE_BENCH)]
    total = sum(p.get(k, 0.0) for p in phases for k in p
                if k.endswith("_wall_s"))
    front = max((int(p.get("front_size", 0)) for p in phases),
                default=0)
    best = max((p.get("best_speedup", 0.0) for p in phases),
               default=0.0)
    payload = {
        "experiment": "dse-search",
        "python": platform.python_version(),
        "kernels": phases,
        "aggregate": {
            "search_total_wall_s": round(total, 6),
            "front_size": front,
            "best_speedup": round(best, 4),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_DSE_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _BENCH:
        _write_bench_json()
        terminalreporter.write_line(
            f"wrote backend wall-time trajectory to {BENCH_JSON}")
    if _NATIVE_BENCH:
        _write_native_bench_json()
        terminalreporter.write_line(
            f"wrote native-tier trajectory to {BENCH_NATIVE_JSON}")
    if _SERVE_BENCH:
        _write_serve_bench_json()
        terminalreporter.write_line(
            f"wrote serve-load trajectory to {BENCH_SERVE_JSON}")
    if _DSE_BENCH:
        _write_dse_bench_json()
        terminalreporter.write_line(
            f"wrote design-space-search trajectory to {BENCH_DSE_JSON}")
    if not _RESULTS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    terminalreporter.write_sep("=", "reproduced paper tables/figures")
    for experiment in sorted(_RESULTS):
        table = _format_table(experiment)
        terminalreporter.write_line(table)
        terminalreporter.write_line("")
        safe = experiment.split(" ")[0].lower()
        (RESULTS_DIR / f"{safe}.txt").write_text(table + "\n")
