"""``repro.obs``: the unified telemetry layer.

A dependency-free observability subsystem spanning the whole stack:

* :class:`~repro.obs.metrics.MetricsRegistry` -- thread-safe counters,
  gauges, summary stats and ``span(name)`` timers;
* :class:`~repro.obs.events.EventLog` -- a structured JSONL event sink;
* :class:`~repro.obs.progress.ProgressReporter` /
  :class:`~repro.obs.progress.ConsoleProgress` -- the progress callback
  protocol and its console renderer;
* :mod:`~repro.obs.context` -- the active-bundle context the
  instrumented layers look up (``telemetry(...)`` to install one).

The design contract, shared with :mod:`repro.sim.trace`: when no bundle
is active, every hook in the solvers, kernels, simulator and sweep
runner costs a single ``is None`` check.  Enabling metrics never
changes results -- instrumentation observes the values the solvers
already computed (iteration counts, residuals, convergence masks) and
is covered by bit-identity tests against telemetry-off runs.

The helpers below fold solver diagnostics into a bundle, and
:func:`solve_progress` turns a masked solve's converged rows into
throttled progress increments; they live here so the solver and kernel
hook sites stay one call each.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.obs.context import (
    Telemetry,
    activate,
    active,
    current_metrics,
    telemetry,
)
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ConsoleProgress, ProgressReporter, as_progress

__all__ = [
    "ConsoleProgress",
    "EventLog",
    "MetricsRegistry",
    "ProgressReporter",
    "Telemetry",
    "activate",
    "active",
    "as_progress",
    "current_metrics",
    "observe_batch_solve",
    "observe_opt_query",
    "observe_opt_step",
    "observe_scalar_solve",
    "solve_progress",
    "telemetry",
]

#: Cap on recorded residual trajectories (one float per iteration).
TRAJECTORY_CAP = 4096

#: Most converged-row updates one masked solve sends its progress sink.
PROGRESS_UPDATES = 20


def observe_scalar_solve(
    tel: Telemetry,
    name: str,
    iterations: int,
    residual: float,
    converged: bool,
    trajectory: "list[float] | None" = None,
) -> None:
    """Fold one scalar solve's diagnostics into a telemetry bundle."""
    metrics = tel.metrics
    if metrics is not None:
        metrics.inc(f"{name}.solves")
        metrics.inc(f"{name}.converged" if converged else f"{name}.failed")
        metrics.observe(f"{name}.iterations", iterations)
        if math.isfinite(residual):
            metrics.observe(f"{name}.residual", residual)
    if tel.events is not None:
        tel.events.emit(
            name,
            iterations=int(iterations),
            residual=float(residual),
            converged=bool(converged),
            residual_trajectory=trajectory,
        )


def observe_batch_solve(
    tel: Telemetry,
    name: str,
    iterations: np.ndarray,
    converged: np.ndarray,
    residuals: np.ndarray | None = None,
    trajectory: "list[float] | None" = None,
    **extra: object,
) -> None:
    """Fold one batch kernel's per-point diagnostics into a bundle.

    ``iterations`` and ``converged`` are the kernel's ``(points,)``
    arrays; the registry sees per-point iteration statistics (via
    ``observe_many``) and converged/failed counts, the event log one
    summary event -- never one record per point.
    """
    n_points = int(np.asarray(converged).size)
    if n_points == 0:
        return
    iter_arr = np.asarray(iterations)
    n_converged = int(np.asarray(converged).sum())
    metrics = tel.metrics
    if metrics is not None:
        metrics.inc(f"{name}.solves")
        metrics.inc(f"{name}.points", n_points)
        metrics.inc(f"{name}.converged", n_converged)
        if n_points - n_converged:
            metrics.inc(f"{name}.failed", n_points - n_converged)
        metrics.observe_many(f"{name}.iterations", iter_arr)
        if residuals is not None:
            res = np.asarray(residuals)
            finite = res[np.isfinite(res)]
            if finite.size:
                metrics.observe_many(f"{name}.residual", finite)
    if tel.events is not None:
        tel.events.emit(
            name,
            points=n_points,
            converged=n_converged,
            iterations_min=int(iter_arr.min()),
            iterations_max=int(iter_arr.max()),
            iterations_mean=float(iter_arr.mean()),
            residual_trajectory=trajectory,
            **extra,
        )


class SolveProgress:
    """Throttled converged-row counter for one masked batch solve.

    The masked loops call :meth:`advance` with the number of rows that
    froze in each iteration (the executors, with each finished record);
    the sink receives increments of at least ``rows / PROGRESS_UPDATES``,
    so at most ``PROGRESS_UPDATES`` calls per solve.  :meth:`close`
    reports every row not yet reported (including rows that hit
    ``max_iter`` or were solved before the loop), so one solve's
    increments sum to ``rows``.
    """

    __slots__ = ("_sink", "_step", "_pending", "_left")

    def __init__(self, sink: "Callable[[int], None]", rows: int) -> None:
        self._sink = sink
        self._step = max(1, -(-rows // PROGRESS_UPDATES))
        self._pending = 0
        self._left = rows

    def advance(self, frozen: int) -> None:
        self._pending += frozen
        if self._pending >= self._step:
            self._flush()

    def close(self) -> None:
        if self._left:
            self._pending = self._left
            self._flush()

    def _flush(self) -> None:
        self._left -= self._pending
        self._sink(self._pending)
        self._pending = 0


def solve_progress(
    tel: "Telemetry | None", rows: int
) -> "SolveProgress | None":
    """A :class:`SolveProgress` for the active progress sink, or None.

    Masked loops look this up once before iterating, so a solve without
    a sink pays one ``is None`` check per iteration and nothing else.
    """
    sink = tel.progress_sink if tel is not None else None
    return SolveProgress(sink, rows) if sink is not None else None


def observe_opt_step(tel: Telemetry, **fields: object) -> None:
    """Fold one optimizer iteration into a bundle (``opt.step`` event +
    step counter); called from the search drivers' ``on_step`` hooks."""
    if tel.metrics is not None:
        tel.metrics.inc("opt.steps")
    if tel.events is not None:
        # The search drivers tag their payloads "kind": bisect/golden/...;
        # remap so it cannot collide with the event's own kind field.
        fields = dict(fields)
        method = fields.pop("kind", None)
        if method is not None:
            fields["search"] = method
        tel.events.emit("opt.step", **fields)


def observe_opt_query(
    tel: Telemetry,
    scenario: str,
    mode: str,
    method: str,
    solves: int,
    points: int,
    converged: bool,
) -> None:
    """Fold one completed inverse query into a bundle.

    The headline statistic is ``opt.solves_per_query`` -- the number of
    batch-solver dispatches one answer cost, the quantity
    ``benchmarks/bench_opt.py`` compares against a full grid scan.
    """
    if tel.metrics is not None:
        metrics = tel.metrics
        metrics.inc("opt.queries")
        metrics.inc("opt.solves", solves)
        metrics.inc("opt.points", points)
        metrics.inc("opt.converged" if converged else "opt.failed")
        metrics.observe("opt.solves_per_query", solves)
        metrics.observe("opt.points_per_query", points)
    if tel.events is not None:
        tel.events.emit(
            "opt.query",
            scenario=scenario,
            mode=mode,
            method=method,
            solves=int(solves),
            points=int(points),
            converged=bool(converged),
        )
