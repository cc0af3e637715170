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
into it.  The misses are evaluated in one call whether or not telemetry
is attached.  With a progress reporter or event sink, that call runs
under a bundle whose ``progress_sink`` receives throttled converged-row
counts from inside the masked solves (or finished-record counts from
the executor) and turns them into ``update(done, total, info)`` calls
and ``sweep.progress`` events; values and cache keys never depend on
it.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import replace
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

#: Keys of the routing split, in reporting order.
_ROUTES = ("cached", "batch", "scalar", "sim")


class _SweepProgress:
    """Sweep-level progress over one miss evaluation.

    Installed as the bundle's ``progress_sink``: the masked solves send
    converged-row counts and the executors finished-record counts, each
    already throttled by :func:`repro.obs.solve_progress`.  It sums them
    across the several kernel calls one batch evaluator can make, keeps
    the running count monotone and clamped to the miss count, and
    forwards it as ``update(hits + done, total, info)`` calls and
    ``sweep.progress`` events.  ``info["routing"]`` is the split of the
    records assembled so far: the cache hits until the final update.
    """

    def __init__(self, tel: Telemetry, spec_name: str, total: int,
                 hits: int) -> None:
        self._tel = tel
        self._spec = spec_name
        self._total = total
        self._hits = hits
        self._misses = total - hits
        self._routing = dict.fromkeys(_ROUTES, 0)
        self._routing["cached"] = hits
        self._done = 0  # misses finished so far
        self._started = time.perf_counter()

    def __call__(self, finished: int) -> None:
        done = min(self._done + finished, self._misses)
        if done > self._done:
            elapsed = time.perf_counter() - self._started
            self.report(done, (self._misses - done) * elapsed / done)

    def report(self, done: int, eta: "float | None",
               routing: "dict | None" = None) -> None:
        """Send ``hits + done`` of ``total`` to the reporter and events."""
        self._done = done
        tel = self._tel
        if tel.progress is not None:
            tel.progress.update(
                self._hits + done,
                self._total,
                {
                    "spec": self._spec,
                    "cache_hits": self._hits,
                    "routing": routing or dict(self._routing),
                    "eta": eta,
                },
            )
        if tel.events is not None:
            tel.events.emit(
                "sweep.progress",
                spec=self._spec,
                done=self._hits + done,
                total=self._total,
                eta=eta,
            )


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
        info)`` callable, or ``None``.  Updates arrive from inside the
        one miss evaluation (about 20 per sweep), starting at the cache
        hits and ending at ``total``.
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

        if tel is not None and tel.events is not None:
            tel.events.emit(
                "sweep.start",
                spec=spec.name,
                evaluator=spec.evaluator,
                points=total,
                cache_hits=hits,
                cache_misses=len(misses),
                batched=batch_func is not None,
            )

        # One miss evaluation whether or not anyone watches: with a
        # reporter or event log attached, the masked solves (or the
        # executor, per finished record) feed progress from inside it.
        progress = None
        watching = nullcontext()
        if tel is not None and (
            tel.progress is not None or tel.events is not None
        ):
            progress = _SweepProgress(tel, spec.name, total, hits)
            watching = _obs_context.activate(
                replace(tel, progress_sink=progress)
            )
            progress.report(0, None)
        params_list = [p for _, _, p in misses]
        with watching:
            if batch_func is not None:
                fresh = evaluate_batch(spec.evaluator, params_list)
            else:
                fresh = executor.map(
                    [(spec.evaluator, p) for p in params_list]
                )
        for (index, key, params), outcome in zip(misses, fresh):
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

    ordered = tuple(records[point.index] for point in points)
    routing = dict.fromkeys(_ROUTES, 0)
    for record in ordered:
        routing[_route(record.meta)] += 1
    if progress is not None:
        progress.report(len(misses), 0.0 if misses else None, dict(routing))
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
