"""The parallel compilation service.

:class:`CompileService` fans :class:`CompileJob` batches out over a
``ProcessPoolExecutor`` and guarantees every job terminates in exactly
one structured :class:`JobResult` — no exceptions escape, no job is
lost, and no failure mode takes the service down:

* **Compile errors and timeouts** come back as structured results from
  the worker itself (see :mod:`repro.service.worker`); they are
  deterministic, so they are never retried.
* **Worker crashes** surface as ``BrokenProcessPool`` on every
  outstanding future (the executor cannot say which job killed it), so
  isolation is a scheduling problem: jobs are submitted in bounded
  waves, and any job carrying a crash strike is re-run *alone* in a
  single-job isolation round.  A crash there can only strike the
  guilty job; innocent bystanders of the original break are exonerated
  by succeeding in their own isolation rounds.  The pool is rebuilt
  with exponential backoff after each break, and a job whose strike
  count exceeds ``max_retries`` is finalized as ``crash``.
* **Stalls** (a worker wedged in something the alarm cannot interrupt,
  or a hung job with no deadline of its own) are caught by a parent
  watchdog: when no future completes for ``stall_grace`` seconds past
  the longest outstanding deadline, the pool is torn down and the
  in-flight jobs are treated like crashes (counted against the same
  budget, finalized as ``timeout``).

Results come back in submission order inside a
:class:`~repro.service.report.BatchResult` that merges every worker's
counters, remarks, trace spans (re-based onto the parent timeline) and
cache statistics into one aggregated report.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.service.jobs import CompileJob, JobResult
from repro.service.report import BatchResult
from repro.service.worker import init_worker, run_job

#: Upper bound on pool rebuilds per batch, over and above what the
#: per-job budgets already bound — a backstop against pathological
#: environments where fresh pools break without any job running.
_MAX_REBUILDS_SLACK = 4


class _JobState:
    """Parent-side bookkeeping for one job in flight."""

    __slots__ = ("job", "index", "attempts", "broken", "result")

    def __init__(self, job: CompileJob, index: int):
        self.job = job
        self.index = index
        self.attempts = 0      # times handed to a worker
        self.broken = 0        # crash/stall strikes
        self.result: "JobResult | None" = None


class CompileService:
    """Crash-isolated parallel compilation over a worker pool.

    Args:
        jobs: worker process count (default ``os.cpu_count()``).
        timeout: default per-job deadline in seconds, applied to jobs
            that do not carry their own (None = no deadline).
        max_retries: crash/stall strikes a job may accumulate before it
            is finalized as failed (its first run plus ``max_retries``
            re-runs).
        backoff: base seconds slept before rebuilding a broken pool;
            doubles per consecutive rebuild, capped at 2 s.
        cache_dir: shared on-disk compilation cache directory handed to
            every worker (None = workers inherit ``REPRO_CACHE_DIR``).
        cache_size: per-worker in-memory LRU size.
        stall_grace: seconds of batch-wide inactivity (past the longest
            outstanding job deadline) before the watchdog declares the
            pool wedged.
        allow_test_hooks: honor ``CompileJob.test_hook`` fault
            injection (concurrency tests only).
    """

    def __init__(self, jobs: "int | None" = None,
                 timeout: "float | None" = None,
                 max_retries: int = 2,
                 backoff: float = 0.05,
                 cache_dir: "str | None" = None,
                 cache_size: int = 256,
                 stall_grace: float = 60.0,
                 allow_test_hooks: bool = False):
        self.workers = max(1, jobs if jobs is not None
                           else (os.cpu_count() or 1))
        self.timeout = timeout
        self.max_retries = max(0, max_retries)
        self.backoff = backoff
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.cache_size = cache_size
        self.stall_grace = stall_grace
        self.allow_test_hooks = allow_test_hooks
        self._pool: "ProcessPoolExecutor | None" = None
        self._rebuilds = 0

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def close(self) -> None:
        self._teardown_pool(wait_for_workers=True)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=init_worker,
                initargs=(self.cache_dir, self.cache_size))
        return self._pool

    def _teardown_pool(self, wait_for_workers: bool = False) -> None:
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        # Kill lingering workers first: shutdown() alone would block on
        # a wedged job forever.
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except OSError:
                pass
        pool.shutdown(wait=wait_for_workers, cancel_futures=True)

    # -- submission -----------------------------------------------------

    def compile_batch(self, jobs: "list[CompileJob]") -> BatchResult:
        """Run every job; returns results in submission order.

        Every job terminates in exactly one JobResult regardless of
        worker crashes, timeouts, or stalls.
        """
        t0 = time.perf_counter()
        wall_origin = time.time()
        states = [_JobState(self._with_default_timeout(job), index)
                  for index, job in enumerate(jobs)]
        runnable = list(states)
        rebuilds = 0
        max_rebuilds = (len(states) * (self.max_retries + 1)
                        + _MAX_REBUILDS_SLACK)

        while runnable:
            # Clean jobs first (suspects sort to the back), submitted
            # in bounded waves so one break can only poison one wave.
            # Once only struck jobs remain, they run one per round: a
            # crash in an isolation round strikes nobody else, which is
            # what lets innocent bystanders of an earlier break finish
            # as ``ok`` while the poisoned job burns its own budget.
            runnable.sort(key=lambda s: (s.broken, s.index))
            if runnable[0].broken == 0:
                clean = sum(1 for s in runnable if s.broken == 0)
                wave = runnable[:min(clean, self.workers * 2)]
            else:
                wave = runnable[:1]
            rest = runnable[len(wave):]
            pool = self._ensure_pool()
            outstanding = {}
            for state in wave:
                # Stamped per submission (retries included) so the
                # worker's queue-wait histogram measures this attempt's
                # time in the pool queue, not time since first enqueue.
                state.job.submitted_at = time.time()
                outstanding[pool.submit(
                    run_job, state.job, self.allow_test_hooks)] = state
            for state in wave:
                state.attempts += 1
            runnable = rest
            broke = False

            while outstanding:
                done, _ = wait(set(outstanding),
                               timeout=self._stall_deadline(outstanding),
                               return_when=FIRST_COMPLETED)
                if not done:
                    self._mark_stalled(outstanding, runnable)
                    outstanding.clear()
                    broke = True
                    break
                for future in done:
                    state = outstanding.pop(future)
                    if future.cancelled():
                        # Never started (pool died before it ran):
                        # requeue without a strike.
                        runnable.append(state)
                        state.attempts -= 1
                        broke = True
                        continue
                    exc = future.exception()
                    if exc is None:
                        self._finish(state, future.result())
                    elif isinstance(exc, BrokenProcessPool):
                        self._strike(state, runnable, status="crash",
                                     detail="worker process died "
                                            "(BrokenProcessPool)")
                        broke = True
                    else:
                        self._strike(state, runnable, status="crash",
                                     detail=f"{type(exc).__name__}: {exc}")
                        broke = True

            if broke:
                self._teardown_pool()
                rebuilds += 1
                self._rebuilds += 1
                if rebuilds > max_rebuilds:
                    for state in runnable:
                        self._finalize(state, JobResult(
                            job_id=state.job.job_id, status="crash",
                            detail="pool rebuild budget exhausted",
                            attempts=state.attempts))
                    runnable = []
                elif runnable:
                    delay = min(self.backoff * (2 ** (rebuilds - 1)), 2.0)
                    time.sleep(delay)

        results = [state.result for state in states]
        return BatchResult(results=results, wall_s=time.perf_counter() - t0,
                           wall_origin=wall_origin, workers=self.workers,
                           rebuilds=rebuilds)

    # -- internals ------------------------------------------------------

    def _with_default_timeout(self, job: CompileJob) -> CompileJob:
        if job.timeout is None and self.timeout is not None:
            job.timeout = self.timeout
        return job

    def _stall_deadline(self, outstanding) -> "float | None":
        """Per-wait watchdog: longest outstanding job deadline plus
        grace.  None (wait forever) only when the batch carries no
        deadlines and the watchdog is disabled."""
        timeouts = [state.job.timeout for state in outstanding.values()]
        if self.stall_grace is None:
            return None
        longest = max((t for t in timeouts if t), default=0.0)
        return longest + self.stall_grace

    def _finish(self, state: _JobState, result: JobResult) -> None:
        result.attempts = state.attempts
        self._finalize(state, result)

    def _strike(self, state: _JobState, runnable: "list[_JobState]",
                status: str, detail: str) -> None:
        """One crash/stall strike; requeue or finalize."""
        state.broken += 1
        if state.broken <= self.max_retries:
            runnable.append(state)
            return
        self._finalize(state, JobResult(
            job_id=state.job.job_id, status=status,
            detail=f"{detail} ({state.broken} attempts)",
            attempts=state.attempts))

    def _mark_stalled(self, outstanding, runnable) -> None:
        for state in outstanding.values():
            self._strike(state, runnable, status="timeout",
                         detail="no completion before the stall "
                                "watchdog; worker killed")

    def _finalize(self, state: _JobState, result: JobResult) -> None:
        state.result = result
