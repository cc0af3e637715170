"""Executors: how a sweep's cache-miss tasks actually run.

Both executors consume ``(evaluator_name, params_dict)`` tasks -- plain
picklable tuples, so the same task list feeds either backend -- and
return records in task order.  When the active telemetry bundle carries
a ``progress_sink`` (the sweep runner installs one while a progress
reporter or event log is attached), finished records feed it through
:func:`repro.obs.solve_progress`, in task order.

:class:`SerialExecutor`
    Runs everything in-process.  The default, and what ``jobs == 1``
    resolves to; also the fallback while debugging evaluators (a worker
    traceback is much less readable than an in-process one).
:class:`ParallelExecutor`
    A :class:`concurrent.futures.ProcessPoolExecutor` wrapper with
    chunked dispatch: tasks are shipped to workers in contiguous chunks
    (default: enough chunks for ~4 rounds per worker) to amortise IPC
    overhead on large grids of cheap points.  Because evaluators are
    pure functions of their params and every stochastic point carries an
    explicit seed, parallel and serial execution produce bit-identical
    results.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs import context as _obs_context
from repro.obs import solve_progress
from repro.sweep.evaluators import evaluate_point

__all__ = ["ParallelExecutor", "SerialExecutor", "get_executor"]

Task = tuple[str, dict]


def _record_dispatch(metrics, workers: int, records: list[dict],
                     elapsed: float) -> None:
    """Fold one executor dispatch into the active metrics registry.

    Worker processes never see the parent's registry; utilization is
    reconstructed parent-side from the per-record ``wall_time`` meta the
    evaluators already report (busy worker-seconds over the dispatch's
    worker-second budget).
    """
    metrics.gauge("sweep.executor.workers", workers)
    metrics.inc("sweep.executor.dispatches")
    metrics.inc("sweep.executor.tasks", len(records))
    busy = sum(
        float(r["meta"]["wall_time"])
        for r in records
        if "wall_time" in r.get("meta", {})
    )
    if elapsed > 0.0 and workers > 0:
        metrics.observe(
            "sweep.executor.utilization", busy / (workers * elapsed)
        )


def _collect(records: Iterable[dict], n_tasks: int) -> list[dict]:
    """Gather records as they finish, feeding the active progress sink."""
    progress = solve_progress(_obs_context.active(), n_tasks)
    if progress is None:
        return list(records)
    out = []
    for record in records:
        out.append(record)
        progress.advance(1)
    progress.close()
    return out


@dataclass(frozen=True)
class SerialExecutor:
    """Evaluate tasks one after another in the calling process."""

    jobs: int = 1

    def map(self, tasks: Sequence[Task]) -> list[dict]:
        metrics = _obs_context.current_metrics()
        started = time.perf_counter()
        records = _collect(map(evaluate_point, tasks), len(tasks))
        if metrics is not None:
            _record_dispatch(
                metrics, 1, records, time.perf_counter() - started
            )
        return records


@dataclass(frozen=True)
class ParallelExecutor:
    """Evaluate tasks on a process pool with chunked dispatch.

    Attributes
    ----------
    jobs:
        Worker process count (>= 1; capped at the CPU count makes sense
        but is not enforced -- simulation points are CPU-bound).
    chunksize:
        Tasks per dispatch unit; ``None`` picks ``ceil(n / (4 * jobs))``
        so each worker sees ~4 chunks (load balance vs IPC overhead).
    """

    jobs: int
    chunksize: int | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")
        if self.chunksize is not None and self.chunksize < 1:
            raise ValueError(
                f"chunksize must be >= 1, got {self.chunksize!r}"
            )

    def _chunksize(self, n_tasks: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return max(1, math.ceil(n_tasks / (4 * self.jobs)))

    def map(self, tasks: Sequence[Task]) -> list[dict]:
        if not tasks:
            return []
        workers = min(self.jobs, len(tasks))
        if workers == 1:
            return SerialExecutor().map(tasks)
        metrics = _obs_context.current_metrics()
        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = _collect(
                pool.map(evaluate_point, tasks,
                         chunksize=self._chunksize(len(tasks))),
                len(tasks),
            )
        if metrics is not None:
            _record_dispatch(
                metrics, workers, records, time.perf_counter() - started
            )
        return records


def get_executor(jobs: int | None) -> SerialExecutor | ParallelExecutor:
    """Executor for a ``--jobs`` value (``0``/``None`` = all CPUs)."""
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs!r}")
    if jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)
