"""The serving core: singleflight, batch-window merging, job scheduling.

:class:`SweepService` is the long-lived object behind the HTTP front
end (:mod:`repro.serve.http`) -- everything here is also directly
usable in-process, which is how the unit tests exercise coalescing and
scheduling without sockets.

Request flow for a point query (:meth:`SweepService.point`):

1. merge the evaluator's declared defaults into the params (exactly
   what the sweep runner does before keying), compute the content
   :func:`~repro.sweep.cache.point_key`;
2. **singleflight** -- claim the key's flight slot or join the
   in-flight leader.  The slot covers the whole lookup *and* compute,
   so N concurrent identical queries do exactly one cache read and at
   most one evaluation (``serve.coalesced`` counts the joiners);
3. the leader consults the shared cache; on a miss it dispatches --
   analytic/bounds evaluators (those with a vectorized batch
   companion) into the **batch window** where co-arriving distinct
   points merge into one batched kernel solve, sim evaluators onto the
   worker pool -- then writes the record back *before* releasing the
   flight, so followers and later arrivals always see it.

Sweep jobs (:meth:`SweepService.submit_sweep`) are routed by the same
rule: batch-capable evaluators run inline at submit time (one
vectorized solve, job is done when submit returns), sim evaluators go
to the persistent worker pool as an async :class:`Job`.  Either way the
job's progress streams out of an in-memory
:class:`~repro.obs.EventLog` (the runner's ``sweep.start`` /
``sweep.progress`` / ``sweep.finish`` events).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Sequence

from repro.obs import EventLog, MetricsRegistry
from repro.sweep.cache import CacheBackend, coerce_cache, point_key
from repro.sweep.cache import SOLVER_VERSION
from repro.sweep.evaluators import (
    evaluate_batch,
    evaluate_point,
    evaluator_defaults,
    get_batch_evaluator,
    get_evaluator,
)
from repro.sweep.results import SweepResult
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec

__all__ = ["Job", "PointOutcome", "SweepService"]


class PointOutcome:
    """What one point query produced: values, meta, and provenance."""

    __slots__ = ("values", "meta", "cached", "coalesced", "key")

    def __init__(self, values: dict, meta: dict, *, cached: bool,
                 coalesced: bool, key: str) -> None:
        self.values = values
        self.meta = meta
        self.cached = cached
        self.coalesced = coalesced
        self.key = key


class _Flight:
    """One in-flight evaluation other requests for the same key join."""

    __slots__ = ("key", "evaluator", "params", "event", "record", "error",
                 "cached")

    def __init__(self, key: str, evaluator: str, params: dict) -> None:
        self.key = key
        self.evaluator = evaluator
        self.params = params
        self.event = threading.Event()
        self.record: dict | None = None  # {"values", "meta"}
        self.error: BaseException | None = None
        self.cached = False  # leader found it in the cache


class _Batcher:
    """Merges co-arriving batch-capable flights into one kernel solve.

    A leader flight lands in the pending queue; the batcher thread
    wakes, sleeps one ``window``, then drains *everything* pending --
    so requests that co-arrive within the window share a single
    ``evaluate_batch`` call per evaluator.  The window only ever delays
    cache *misses* of batch-capable evaluators; cache hits never come
    here.

    A failed shared solve is never reported to the whole batch: the
    group's flights are re-solved one by one, so each request gets
    exactly the value or error a lone ``evaluate_batch`` call gives.
    """

    def __init__(self, service: "SweepService", window: float) -> None:
        self.service = service
        self.window = window
        self._pending: deque[_Flight] = deque()
        self._cond = threading.Condition()
        self._stop = False
        self._thread = threading.Thread(
            target=self._loop, name="serve-batcher", daemon=True
        )
        self._thread.start()

    def submit(self, flight: _Flight) -> None:
        with self._cond:
            self._pending.append(flight)
            self._cond.notify()

    def close(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify()
        self._thread.join(timeout=5.0)

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stop:
                    self._cond.wait()
                if self._stop and not self._pending:
                    return
            # Let the window fill outside the lock, then drain it all.
            if self.window > 0:
                time.sleep(self.window)
            with self._cond:
                batch = list(self._pending)
                self._pending.clear()
            if batch:
                self._solve(batch)

    def _solve(self, batch: "list[_Flight]") -> None:
        metrics = self.service.metrics
        metrics.inc("serve.batch.requests", len(batch))
        groups: dict[str, list[_Flight]] = {}
        for flight in batch:
            groups.setdefault(flight.evaluator, []).append(flight)
        for evaluator, flights in groups.items():
            metrics.inc("serve.batch.solves")
            if len(flights) > 1:
                metrics.inc("serve.batch.merged", len(flights) - 1)
            self._solve_group(evaluator, flights)

    def _solve_group(self, evaluator: str, flights: "list[_Flight]") -> None:
        try:
            records = evaluate_batch(evaluator, [f.params for f in flights])
        except BaseException as exc:
            if len(flights) > 1 and isinstance(exc, Exception):
                # One bad point fails the whole vectorized solve; isolate
                # it so its error cannot bleed onto co-batched requests.
                for flight in flights:
                    self._solve_group(evaluator, [flight])
            else:  # propagate to every waiter
                for flight in flights:
                    self.service._finish(flight, error=exc)
            return
        for flight, record in zip(flights, records):
            self.service._finish(flight, record=record)


class Job:
    """One submitted sweep: state machine + progress + result."""

    __slots__ = ("id", "spec", "route", "state", "error",
                 "result", "submitted", "started", "finished", "events",
                 "_done", "_total", "_lock")

    def __init__(self, job_id: str, spec: SweepSpec, *, route: str) -> None:
        self.id = job_id
        self.spec = spec
        self.route = route  # "inline" | "pool"
        self.state = "queued"  # queued -> running -> done | error
        self.error: str | None = None
        self.result: SweepResult | None = None
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.events = EventLog()  # in-memory; streamed via ?since=
        self._done = 0
        self._total = len(spec)
        self._lock = threading.Lock()

    def _progress(self, done: int, total: int,
                  info: Mapping[str, object]) -> None:
        with self._lock:
            self._done = done
            self._total = total

    def status(self) -> dict[str, object]:
        """JSON-ready snapshot of this job."""
        with self._lock:
            done, total = self._done, self._total
        out: dict[str, object] = {
            "job": self.id,
            "spec": self.spec.name,
            "evaluator": self.spec.evaluator,
            "route": self.route,
            "state": self.state,
            "points": len(self.spec),
            "progress": {"done": done, "total": total},
            "submitted": self.submitted,
            "events": len(self.events.records),
        }
        if self.started is not None:
            out["started"] = self.started
        if self.finished is not None:
            out["finished"] = self.finished
            out["elapsed"] = self.finished - (self.started or self.submitted)
        if self.error is not None:
            out["error"] = self.error
        return out

    def events_since(self, since: int = 0) -> "tuple[list[dict], int]":
        """Event records from sequence ``since`` on, plus the next seq."""
        if since < 0:
            raise ValueError(f"since must be >= 0, got {since}")
        records = self.events.records
        return records[since:], len(records)


class SweepService:
    """A long-lived, concurrency-safe LoPC query/sweep service."""

    def __init__(
        self,
        cache: "CacheBackend | str | None" = None,
        *,
        cache_backend: str | None = None,
        workers: int = 2,
        batch_window: float = 0.002,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.cache = coerce_cache(cache, cache_backend)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.workers = max(1, int(workers))
        self.batch_window = batch_window
        self.started_at = time.time()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-worker"
        )
        self._batcher = _Batcher(self, batch_window)
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._job_seq = 0
        self._outstanding = 0  # pool jobs queued or running

    # -- point queries -------------------------------------------------
    def point(self, evaluator: str, params: Mapping[str, object],
              ) -> PointOutcome:
        """Evaluate one point (cache -> singleflight -> batch/pool).

        ``params`` plus the evaluator's declared defaults are keyed
        exactly as the sweep runner keys them, so served points and
        sweep points share cache records.
        """
        get_evaluator(evaluator)  # unknown-name errors before any work
        merged = evaluator_defaults(evaluator)
        merged.update(params)
        key = point_key(evaluator, merged)

        with self._flights_lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight(key, evaluator, merged)
                self._flights[key] = flight

        if not leader:
            self.metrics.inc("serve.coalesced")
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return self._outcome(flight, coalesced=True)

        try:
            if self.cache is not None:
                record = self.cache.get(key)
                if record is not None:
                    self._finish(
                        flight,
                        record={"values": record["values"],
                                "meta": record["meta"]},
                        cached=True,
                    )
                    return self._outcome(flight, coalesced=False)
            self._dispatch(flight)
        except BaseException as exc:
            self._finish(flight, error=exc)
            raise
        flight.event.wait()
        if flight.error is not None:
            raise flight.error
        return self._outcome(flight, coalesced=False)

    def _dispatch(self, flight: _Flight) -> None:
        """Route a leader's cache miss to the batch window or the pool."""
        if get_batch_evaluator(flight.evaluator) is not None:
            self.metrics.inc("serve.point.route.batch")
            self._batcher.submit(flight)
        else:
            self.metrics.inc("serve.point.route.pool")
            self._pool.submit(self._evaluate_direct, flight)

    def _evaluate_direct(self, flight: _Flight) -> None:
        try:
            record = evaluate_point((flight.evaluator, flight.params))
        except BaseException as exc:
            self._finish(flight, error=exc)
        else:
            self._finish(flight, record=record)

    def _finish(self, flight: _Flight, record: dict | None = None,
                error: BaseException | None = None,
                cached: bool = False) -> None:
        """Complete a flight: persist, then release key and waiters.

        The cache write happens *before* the flight slot is released --
        a request arriving after release always finds either the flight
        or the record, never a gap, so N concurrent identical queries
        produce exactly one write.
        """
        if error is None and not cached and self.cache is not None:
            self.cache.put(
                flight.key,
                {
                    "evaluator": flight.evaluator,
                    "params": flight.params,
                    "values": record["values"],
                    "meta": record["meta"],
                    "solver_version": SOLVER_VERSION,
                },
            )
        flight.record = record
        flight.error = error
        flight.cached = cached
        with self._flights_lock:
            self._flights.pop(flight.key, None)
        flight.event.set()

    def _outcome(self, flight: _Flight, *, coalesced: bool) -> PointOutcome:
        meta = dict(flight.record["meta"])
        meta["cached"] = flight.cached
        meta["key"] = flight.key
        if coalesced:
            meta["coalesced"] = True
        return PointOutcome(
            values=dict(flight.record["values"]),
            meta=meta,
            cached=flight.cached,
            coalesced=coalesced,
            key=flight.key,
        )

    def solution(self, *, scenario: str | None = None,
                 backend: str = "analytic",
                 evaluator: str | None = None,
                 params: Mapping[str, object] | None = None):
        """A point query typed as a :class:`~repro.api.Solution`.

        Either a ``scenario`` + ``backend`` role (resolved through the
        facade, so defaults and validation match ``scenario(...).
        analytic()`` exactly) or a bare registry ``evaluator`` name.
        """
        from repro.api.scenario import find_backend, get_scenario_class
        from repro.api.solution import Solution

        params = dict(params or {})
        if (scenario is None) == (evaluator is None):
            raise ValueError("pass exactly one of scenario= or evaluator=")
        if scenario is not None:
            cls = get_scenario_class(scenario)
            instance = cls(**params)
            spec_backend = cls.backend(backend)
            full = instance.resolve(backend)
            evaluator = spec_backend.evaluator
            scenario_name, role = scenario, backend
        else:
            full = dict(evaluator_defaults(evaluator))
            full.update(params)
            found = find_backend(evaluator)
            if found is not None:
                scenario_name, role = found[0].name, found[1].role
            else:
                scenario_name, role = evaluator, "custom"
        outcome = self.point(evaluator, full)
        return Solution(
            scenario=scenario_name,
            backend=role,
            evaluator=evaluator,
            params=full,
            values=outcome.values,
            meta=outcome.meta,
        )

    # -- sweep jobs ----------------------------------------------------
    def submit_sweep(self, spec: SweepSpec) -> Job:
        """Schedule one sweep; returns its :class:`Job` immediately.

        Batch-capable evaluators run *inline* (the job is already done
        when this returns -- one vectorized solve); sim evaluators
        run asynchronously on the worker pool.
        """
        get_evaluator(spec.evaluator)
        route = (
            "inline" if get_batch_evaluator(spec.evaluator) is not None
            else "pool"
        )
        with self._jobs_lock:
            self._job_seq += 1
            job = Job(f"job-{self._job_seq:04d}", spec, route=route)
            self._jobs[job.id] = job
        self.metrics.inc(f"serve.jobs.route.{route}")
        if route == "inline":
            self._run_job(job)
        else:
            with self._jobs_lock:
                self._outstanding += 1
                depth = self._outstanding
            self.metrics.gauge("serve.jobs.queue_depth", depth)
            self.metrics.gauge_max("serve.jobs.queue_depth_high_water",
                                   depth)
            self._pool.submit(self._run_pool_job, job)
        return job

    def _run_pool_job(self, job: Job) -> None:
        try:
            self._run_job(job)
        finally:
            with self._jobs_lock:
                self._outstanding -= 1
                depth = self._outstanding
            self.metrics.gauge("serve.jobs.queue_depth", depth)

    def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.started = time.time()
        try:
            with self.metrics.span(f"serve.jobs.{job.route}"):
                result = run_sweep(
                    job.spec,
                    cache=self.cache,
                    events=job.events,
                    progress=job._progress,
                )
        except BaseException as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "error"
        else:
            job.result = result
            job.state = "done"
        job.finished = time.time()

    def job(self, job_id: str) -> Job:
        with self._jobs_lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                known = ", ".join(sorted(self._jobs)) or "(none)"
                raise KeyError(
                    f"unknown job {job_id!r}; known: {known}"
                ) from None

    def jobs(self) -> "list[Job]":
        with self._jobs_lock:
            return list(self._jobs.values())

    # -- inverse queries -----------------------------------------------
    def optimize(self, scenario_name: str,
                 params: Mapping[str, object],
                 query: Mapping[str, object]):
        """Answer an inverse query; returns an OptResult.

        ``query`` is the keyword set of
        :meth:`repro.api.Scenario.optimize` (``minimize``/``maximize``/
        ``knee``, ``over``, ``subject_to``, ``backend`` ...).  ``over``
        ranges arrive as JSON lists and are coerced to tuples.
        """
        from repro.api.scenario import scenario as make_scenario

        query = dict(query)
        over = query.get("over")
        if isinstance(over, Mapping):
            query["over"] = {
                k: tuple(v) if isinstance(v, Sequence)
                and not isinstance(v, str) else v
                for k, v in over.items()
            }
        with self.metrics.span("serve.optimize"):
            return make_scenario(scenario_name, **dict(params)).optimize(
                **query
            )

    # -- introspection -------------------------------------------------
    def cache_stats(self) -> dict[str, object]:
        """Backend identity, record count, and hit/miss/write counters."""
        if self.cache is None:
            return {"backend": None, "stats": None, "records": 0}
        backend = type(self.cache).__name__
        location = getattr(self.cache, "path", None) or getattr(
            self.cache, "root", None
        )
        out: dict[str, object] = {
            "backend": backend,
            "stats": self.cache.stats.as_dict(),
        }
        if location is not None:
            out["location"] = str(location)
        try:
            out["records"] = len(self.cache)  # type: ignore[arg-type]
        except TypeError:
            out["records"] = None
        return out

    def metrics_snapshot(self) -> dict[str, dict]:
        return self.metrics.as_dict()

    def close(self) -> None:
        """Stop the batcher and worker pool (idempotent)."""
        self._batcher.close()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
