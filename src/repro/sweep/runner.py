"""Sweep orchestration: expand, consult cache, dispatch, assemble.

:func:`run_sweep` is the one entry point the experiments and CLI use:

1. expand the :class:`~repro.sweep.spec.SweepSpec` into points;
2. look every point up in the (optional) content-addressed cache;
3. evaluate the misses -- through the evaluator's *batch companion*
   when it advertises one (one vectorized in-process call over the
   whole miss list; the analytic LoPC evaluators do), otherwise through
   the executor (serial, or a process pool when ``jobs > 1``), in point
   order;
4. persist fresh records back to the cache (so an interrupted sweep
   resumes, and overlapping sweeps share work);
5. assemble a :class:`~repro.sweep.results.SweepResult` whose metadata
   reports cache traffic, total simulator events, and per-point compute
   time -- the numbers benchmark JSONs track across PRs.

Batch and scalar paths produce bit-identical values (the batch solvers
replicate the scalar fixed-point updates with per-point masking), so
records cached by either are interchangeable; ``batch=False`` forces
the scalar path for parity testing and benchmarking.

Telemetry (:mod:`repro.obs`) threads through three keyword arguments --
``metrics``, ``progress``, ``events`` -- merged with any ambient bundle
an enclosing ``obs.telemetry(...)`` block installed (explicit wins).
The bundle is activated around evaluation so every instrumented layer
underneath (solver loops, batch kernels, simulator, executors) reports
into it.  Cache misses are evaluated in chunks *only* when a progress
reporter or event sink is attached -- chunking a batch kernel changes
wall-clock bookkeeping but never values or cache keys, and the
metrics-only path stays single-shot so the disabled/metrics overhead
gate measures the same dispatch shape.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Union

from repro.obs import EventLog, MetricsRegistry, Telemetry, as_progress
from repro.obs import context as _obs_context
from repro.sweep.cache import (
    SOLVER_VERSION,
    CacheBackend,
    ResultCache,
    coerce_cache,
    point_key,
)
from repro.sweep.evaluators import (
    evaluate_batch,
    evaluator_defaults,
    get_batch_evaluator,
    get_evaluator,
)
from repro.sweep.executors import ParallelExecutor, SerialExecutor, get_executor
from repro.sweep.results import PointRecord, SweepResult
from repro.sweep.spec import SweepSpec

__all__ = ["run_sweep"]

CacheLike = Union[CacheBackend, ResultCache, str, Path, None]

#: Target number of progress updates over a sweep's cache misses.
_PROGRESS_CHUNKS = 20

#: Keys of the routing split, in reporting order.
_ROUTES = ("cached", "batch", "scalar", "sim")

def _resolve_telemetry(
    metrics: "MetricsRegistry | bool | None",
    progress: object,
    events: object,
) -> tuple[Telemetry, bool]:
    """Merge explicit telemetry arguments with the ambient bundle.

    Explicit arguments win; ``None`` falls back to whatever an enclosing
    ``obs.telemetry(...)`` block installed.  ``metrics=True`` creates a
    fresh registry (read it back from ``SweepResult`` metadata).
    Returns the bundle plus whether this call opened the event sink
    (and therefore must close it).
    """
    ambient = _obs_context.active()
    if metrics is True:
        registry = MetricsRegistry()
    elif metrics is False:
        registry = None
    elif metrics is not None:
        registry = metrics
    else:
        registry = ambient.metrics if ambient is not None else None
    own_events = False
    if events is not None:
        own_events = not isinstance(events, EventLog)
        log = EventLog.coerce(events)
    else:
        log = ambient.events if ambient is not None else None
    if progress is not None:
        reporter = as_progress(progress)
    else:
        reporter = ambient.progress if ambient is not None else None
    tel = Telemetry(metrics=registry, events=log, progress=reporter)
    return tel, own_events


def _route(meta: dict) -> str:
    """Which path produced a record: cached / batch / scalar / sim."""
    if meta.get("cached"):
        return "cached"
    if meta.get("batched"):
        return "batch"
    if "events" in meta:
        return "sim"
    return "scalar"


def run_sweep(
    spec: SweepSpec,
    *,
    cache: CacheLike = None,
    jobs: int = 1,
    executor: Union[SerialExecutor, ParallelExecutor, None] = None,
    batch: bool = True,
    metrics: "MetricsRegistry | bool | None" = None,
    progress: object = None,
    events: object = None,
) -> SweepResult:
    """Evaluate every point of ``spec`` and return the assembled result.

    Parameters
    ----------
    spec:
        The sweep description.  ``spec.evaluator`` must be registered
        (checked up front, before any work is dispatched).
    cache:
        A cache backend (:class:`ResultCache`,
        :class:`~repro.sweep.cache.SqliteCache`, or anything satisfying
        :class:`~repro.sweep.cache.CacheBackend`), a cache *directory*,
        a ``*.sqlite`` path, or ``None`` (no caching); see
        :func:`~repro.sweep.cache.coerce_cache`.  Pass an instance to
        read hit/miss statistics after the run -- they accumulate on
        ``cache.stats`` and the run's share lands in the result
        metadata.
    jobs:
        Worker processes for cache-miss evaluation.  ``1`` (default)
        runs serially in-process; ``0`` means one worker per CPU.
        Ignored when ``executor`` is given, and by evaluators that take
        the vectorized batch path.
    executor:
        Explicit executor instance (overrides ``jobs``).  Passing one is
        an instruction to dispatch through it, so it also disables the
        batch fast path.
    batch:
        If True (default) and the evaluator advertises a batch
        companion, all cache misses are evaluated in one vectorized
        in-process call (bit-identical values, no pool dispatch).
        ``False`` forces per-point evaluation through the executor.
    metrics:
        A :class:`~repro.obs.MetricsRegistry`, ``True`` for a fresh one,
        or ``None`` to inherit the ambient bundle's.  The registry
        snapshot is folded into the result metadata under
        ``"telemetry"``.
    progress:
        A :class:`~repro.obs.ProgressReporter`, a bare ``(done, total,
        info)`` callable, or ``None``.  Attaching one switches miss
        evaluation to chunks so updates arrive while the sweep runs.
    events:
        An :class:`~repro.obs.EventLog`, a JSONL path, an open file, or
        ``None``.  A path opened here is closed before returning.

    Telemetry never changes results: enabled and disabled runs produce
    byte-identical value tables and cache keys (asserted by the
    bit-identity tests).
    """
    tel, own_events = _resolve_telemetry(metrics, progress, events)
    if not tel.enabled:
        return _run_sweep(spec, cache, jobs, executor, batch, None)
    try:
        with _obs_context.activate(tel):
            return _run_sweep(spec, cache, jobs, executor, batch, tel)
    finally:
        if own_events and tel.events is not None:
            tel.events.close()


def _run_sweep(
    spec: SweepSpec,
    cache: CacheLike,
    jobs: int,
    executor: Union[SerialExecutor, ParallelExecutor, None],
    batch: bool,
    tel: Telemetry | None,
) -> SweepResult:
    get_evaluator(spec.evaluator)  # fail fast on unknown evaluators
    defaults = evaluator_defaults(spec.evaluator)
    use_batch = batch and executor is None
    if executor is None:
        executor = get_executor(jobs)
    store = coerce_cache(cache)
    registry = tel.metrics if tel is not None else None

    started = time.perf_counter()
    writes_before = store.stats.writes if store is not None else 0
    points = spec.points()
    records: dict[int, PointRecord] = {}
    misses: list[tuple[int, str, dict]] = []  # (index, key, params)

    span = (
        registry.span("sweep.run") if registry is not None else nullcontext()
    )
    with span:
        for point in points:
            # Fill in the evaluator's declared defaults so omitted and
            # explicit-default parameters share one cache record.
            params = point.params
            params.update(
                (k, v) for k, v in defaults.items() if k not in params
            )
            # Content hashing is pure overhead without a store (~20% of
            # the batch fast path's wall time on dense analytic grids).
            key = (
                point_key(spec.evaluator, params) if store is not None else None
            )
            cached = store.get(key) if store is not None else None
            if cached is not None:
                records[point.index] = PointRecord(
                    index=point.index,
                    params=params,
                    values=cached.get("values", {}),
                    meta=dict(cached.get("meta", {}), cached=True, key=key),
                )
            else:
                misses.append((point.index, key, params))

        batch_func = get_batch_evaluator(spec.evaluator) if use_batch else None
        total = len(points)
        hits = total - len(misses)

        def absorb(index: int, key: "str | None", params: dict,
                   outcome: dict) -> None:
            values, meta = outcome["values"], outcome["meta"]
            if store is not None:
                store.put(
                    key,
                    {
                        "evaluator": spec.evaluator,
                        "params": params,
                        "values": values,
                        "meta": meta,
                        "solver_version": SOLVER_VERSION,
                    },
                )
            fresh_meta = dict(meta, cached=False)
            if key is not None:
                fresh_meta["key"] = key
            records[index] = PointRecord(
                index=index,
                params=params,
                values=values,
                meta=fresh_meta,
            )

        def evaluate(chunk: "list[tuple[int, str, dict]]") -> list[dict]:
            params_list = [p for _, _, p in chunk]
            if batch_func is not None:
                return evaluate_batch(spec.evaluator, params_list)
            return executor.map([(spec.evaluator, p) for p in params_list])

        def report(done: int, eta: "float | None") -> None:
            if tel is None or tel.progress is None:
                return
            routing = dict.fromkeys(_ROUTES, 0)
            for record in records.values():
                routing[_route(record.meta)] += 1
            tel.progress.update(
                done,
                total,
                {
                    "spec": spec.name,
                    "cache_hits": hits if store is not None else 0,
                    "routing": routing,
                    "eta": eta,
                },
            )

        if tel is not None and tel.events is not None:
            tel.events.emit(
                "sweep.start",
                spec=spec.name,
                evaluator=spec.evaluator,
                points=total,
                cache_hits=hits if store is not None else 0,
                cache_misses=len(misses),
                batched=batch_func is not None,
            )

        # Chunked evaluation exists for live feedback only: the
        # metrics-only (and disabled) paths keep the one-shot dispatch
        # the overhead gate times.  Chunking the batch kernels is safe
        # because per-point masking makes every point's trajectory
        # independent of its batch-mates.
        live = tel is not None and (
            tel.progress is not None or tel.events is not None
        )
        if not live or not misses:
            report(hits, None)
            fresh = evaluate(misses)
            for (index, key, params), outcome in zip(misses, fresh):
                absorb(index, key, params, outcome)
            report(total, 0.0 if misses else None)
        else:
            chunk_size = max(1, math.ceil(len(misses) / _PROGRESS_CHUNKS))
            if batch_func is None:
                # Keep pool workers saturated: never dispatch a chunk
                # smaller than one round of tasks per worker.
                chunk_size = max(chunk_size, 4 * getattr(executor, "jobs", 1))
            done = hits
            report(done, None)
            miss_started = time.perf_counter()
            for lo in range(0, len(misses), chunk_size):
                chunk = misses[lo:lo + chunk_size]
                for (index, key, params), outcome in zip(
                    chunk, evaluate(chunk)
                ):
                    absorb(index, key, params, outcome)
                done += len(chunk)
                done_misses = done - hits
                elapsed_miss = time.perf_counter() - miss_started
                eta = (
                    (len(misses) - done_misses) * elapsed_miss / done_misses
                    if done_misses
                    else None
                )
                if tel is not None and tel.events is not None:
                    tel.events.emit(
                        "sweep.chunk",
                        spec=spec.name,
                        done=done,
                        total=total,
                        chunk_points=len(chunk),
                        eta=eta,
                    )
                report(done, eta)

    ordered = tuple(records[point.index] for point in points)
    routing = dict.fromkeys(_ROUTES, 0)
    for record in ordered:
        routing[_route(record.meta)] += 1
    events_total = sum(
        int(r.meta["events"]) for r in ordered if "events" in r.meta
    )
    wall = sum(
        float(r.meta["wall_time"]) for r in ordered if "wall_time" in r.meta
    )
    elapsed = time.perf_counter() - started
    cache_hits = len(ordered) - len(misses) if store is not None else 0
    cache_misses = len(misses) if store is not None else len(ordered)

    if registry is not None:
        registry.inc("sweep.runs")
        registry.inc("sweep.points", len(ordered))
        registry.inc("sweep.cache_hits", cache_hits)
        registry.inc("sweep.cache_misses", cache_misses)

    metadata: dict[str, object] = {
        "spec": spec.name,
        "evaluator": spec.evaluator,
        "points": len(ordered),
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "cache_writes": (
            store.stats.writes - writes_before if store is not None else 0
        ),
        "cache_enabled": store is not None,
        "batched": batch_func is not None,
        "jobs": getattr(executor, "jobs", 1),
        "events_processed": events_total,
        "wall_time": wall,
        "elapsed": elapsed,
        "solver_version": SOLVER_VERSION,
        "routing": routing,
    }
    if store is not None:
        metadata["cache_stats"] = store.stats.as_dict()
    if registry is not None:
        # Snapshot after the span closed so sweep.run's timing is in.
        metadata["telemetry"] = registry.as_dict()

    if tel is not None and tel.events is not None:
        tel.events.emit(
            "sweep.finish",
            spec=spec.name,
            points=len(ordered),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            routing=routing,
            elapsed=elapsed,
        )

    return SweepResult(
        spec_name=spec.name,
        evaluator=spec.evaluator,
        records=ordered,
        metadata=metadata,
    )
