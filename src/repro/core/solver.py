"""Fixed-point machinery shared by the LoPC model solvers.

The LoPC equations form a small non-linear system (a quartic in the
homogeneous all-to-all case -- paper Section 5.3).  The paper suggests
"us[ing] an equation solver to find a numerical solution"; we provide two
reproducible numerical strategies:

* :func:`solve_fixed_point` -- damped successive substitution on a vector
  map ``x -> f(x)``.  All the LoPC response-time maps are contractions for
  feasible parameters once mildly damped, and this method needs nothing
  but the map itself (works for the heterogeneous Appendix-A model).
* :func:`solve_scalar_fixed_point` -- Brent bracketing on ``g(R) = F[R] - R``
  for scalar recursions like Eq. 5.11 where a bracket is known
  analytically.
* :func:`solve_fixed_point_batch` -- the vectorized counterpart of
  :func:`solve_fixed_point`: one damped iteration over a whole
  ``(points, *dims)`` stack of independent maps with per-point
  convergence masking, bit-identical to per-point scalar solves.
  States may carry structure in the trailing axes (the multi-class
  ``(points, classes, centres)`` layout, or the general model's
  ``(points, 3, P)`` residence stack); the residual reduces over all of
  them.  The batch model entry points
  (:func:`repro.core.alltoall.solve_batch`,
  :func:`repro.core.client_server.solve_workpile_batch`,
  :func:`repro.core.general.solve_general_batch`) and the sweep
  engine's vectorized fast path are built on it.

Both return diagnostics so callers (and tests) can verify convergence
instead of silently accepting a bad point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from repro.obs import (
    TRAJECTORY_CAP,
    observe_batch_solve,
    observe_scalar_solve,
    solve_progress,
)
from repro.obs import context as _obs_context

__all__ = [
    "BatchFixedPointResult",
    "FixedPointResult",
    "solve_fixed_point",
    "solve_fixed_point_batch",
    "solve_scalar_fixed_point",
]


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails to reach tolerance."""


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a damped fixed-point iteration.

    Attributes
    ----------
    value:
        The converged point (1-D :class:`numpy.ndarray`).
    iterations:
        Number of iterations performed.
    residual:
        Final infinity-norm of ``f(x) - x``.
    converged:
        Whether ``residual <= tol`` was reached within ``max_iter``.
    """

    value: np.ndarray
    iterations: int
    residual: float
    converged: bool


def solve_fixed_point(
    func: Callable[[np.ndarray], np.ndarray],
    initial: Sequence[float] | np.ndarray,
    *,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 20_000,
    raise_on_failure: bool = True,
) -> FixedPointResult:
    """Solve ``x = f(x)`` by damped successive substitution.

    The update is ``x <- (1 - damping) * x + damping * f(x)``; ``damping=1``
    is plain substitution.  Convergence is declared when the infinity norm
    of ``f(x) - x`` relative to ``max(1, |x|)`` drops below ``tol``.

    Parameters
    ----------
    func:
        The map.  Must accept and return arrays of the same shape as
        ``initial`` and be finite on the iterates.
    initial:
        Cold-start point (e.g. the contention-free response times).
    damping:
        Step fraction in (0, 1].
    tol, max_iter:
        Convergence tolerance / iteration cap.
    raise_on_failure:
        If True (default), raise :class:`ConvergenceError` when the cap is
        hit; otherwise return a result with ``converged=False``.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping!r}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")

    x = np.atleast_1d(np.asarray(initial, dtype=float)).copy()
    if x.ndim != 1:
        raise ValueError("initial must be scalar or 1-D")

    # Telemetry is one `is None` check when disabled; the residual
    # trajectory is only collected when an event sink is listening.
    tel = _obs_context.active()
    trajectory: list[float] | None = (
        [] if tel is not None and tel.events is not None else None
    )

    residual = float("inf")
    for iteration in range(1, max_iter + 1):
        fx = np.atleast_1d(np.asarray(func(x), dtype=float))
        if fx.shape != x.shape:
            raise ValueError(
                f"func returned shape {fx.shape}, expected {x.shape}"
            )
        if not np.all(np.isfinite(fx)):
            raise ConvergenceError(
                f"fixed-point map produced non-finite values at iteration "
                f"{iteration}: {fx!r}"
            )
        scale = np.maximum(1.0, np.abs(x))
        residual = float(np.max(np.abs(fx - x) / scale))
        if trajectory is not None and len(trajectory) < TRAJECTORY_CAP:
            trajectory.append(residual)
        x = (1.0 - damping) * x + damping * fx
        if residual <= tol:
            if tel is not None:
                observe_scalar_solve(
                    tel, "solver.fixed_point", iteration, residual, True,
                    trajectory,
                )
            return FixedPointResult(x, iteration, residual, True)

    if tel is not None:
        observe_scalar_solve(
            tel, "solver.fixed_point", max_iter, residual, False, trajectory
        )
    if raise_on_failure:
        raise ConvergenceError(
            f"fixed point not reached after {max_iter} iterations "
            f"(residual {residual:.3e} > tol {tol:.3e})"
        )
    return FixedPointResult(x, max_iter, residual, False)


@dataclass(frozen=True)
class BatchFixedPointResult:
    """Outcome of a batched damped fixed-point iteration.

    Attributes
    ----------
    value:
        ``(points, *dims)`` array of per-point solutions (same shape as
        the ``initial`` the solve was started from).
    iterations:
        ``(points,)`` -- iterations each point ran before freezing.
    residual:
        ``(points,)`` -- final relative infinity-norm residual per point
        (``inf`` for points that produced non-finite iterates).
    converged:
        ``(points,)`` bool -- per-point convergence flags.
    """

    value: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    converged: np.ndarray

    def __len__(self) -> int:
        return int(self.value.shape[0])


def solve_fixed_point_batch(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    initial: Sequence[Sequence[float]] | np.ndarray,
    *,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 20_000,
    raise_on_failure: bool = True,
) -> BatchFixedPointResult:
    """Solve ``x_p = f(x_p)`` for many points in one masked iteration.

    The vectorized counterpart of :func:`solve_fixed_point`: ``initial``
    is ``(points, dims)`` -- or, for structured states like the
    multi-class kernels', ``(points, *dims)`` with any number of
    trailing axes (e.g. ``(points, classes, centres)``; the residual is
    taken over all trailing axes, exactly as if each point's state were
    flattened into one vector) -- and ``func(x_active, indices)`` must
    map an ``(m, *dims)`` array of *active* points (plus the ``(m,)``
    array of their row indices, so per-point parameters can be gathered)
    to an ``(m, *dims)`` array, elementwise per row.  Each point follows
    exactly the scalar update sequence -- damped step, relative
    infinity-norm residual, ``residual <= tol`` stop -- and freezes at
    its own convergence iteration, so a batched solve is bit-identical
    to per-point scalar solves of the same map.

    Points whose iterates go non-finite are frozen immediately with
    ``residual = inf`` (the scalar solver raises at that moment; here the
    remaining points keep iterating and the failure is reported at the
    end).  When ``raise_on_failure`` is True, a :class:`ConvergenceError`
    naming the failed point indices is raised after the loop if any point
    failed to converge.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping!r}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")

    x = np.atleast_2d(np.asarray(initial, dtype=float)).copy()
    if x.ndim < 2:
        raise ValueError("initial must be a (points, *dims) array")
    n_points = x.shape[0]
    # Residuals and finiteness reduce over every axis but the points one.
    point_axes = tuple(range(1, x.ndim))

    iterations = np.zeros(n_points, dtype=np.int64)
    residuals = np.full(n_points, np.inf)
    converged = np.zeros(n_points, dtype=bool)
    active = np.ones(n_points, dtype=bool)

    tel = _obs_context.active()
    trajectory: list[float] | None = (
        [] if tel is not None and tel.events is not None else None
    )
    progress = solve_progress(tel, n_points)

    for iteration in range(1, max_iter + 1):
        if not active.any():
            break
        rows = np.flatnonzero(active)
        xa = x[rows]
        fx = np.asarray(func(xa, rows), dtype=float)
        if fx.ndim < 2:
            fx = np.atleast_2d(fx)
        if fx.shape != xa.shape:
            raise ValueError(
                f"func returned shape {fx.shape}, expected {xa.shape}"
            )
        finite = np.all(np.isfinite(fx), axis=point_axes)
        scale = np.maximum(1.0, np.abs(xa))
        with np.errstate(invalid="ignore"):
            residual = np.max(np.abs(fx - xa) / scale, axis=point_axes)
        new_x = (1.0 - damping) * xa + damping * fx
        # Non-finite rows freeze on their *previous* iterate (the scalar
        # solver raises before applying the update).
        bad = rows[~finite]
        residuals[bad] = np.inf
        iterations[bad] = iteration
        active[bad] = False

        good = finite
        x[rows[good]] = new_x[good]
        residuals[rows[good]] = residual[good]
        iterations[rows[good]] = iteration
        done = rows[good][residual[good] <= tol]
        converged[done] = True
        active[done] = False
        if progress is not None:
            progress.advance(bad.size + done.size)
        if trajectory is not None and len(trajectory) < TRAJECTORY_CAP:
            finite_res = residual[good]
            trajectory.append(
                float(finite_res.max()) if finite_res.size else float("inf")
            )

    if progress is not None:
        progress.close()
    if tel is not None:
        observe_batch_solve(
            tel, "solver.fixed_point_batch", iterations, converged,
            residuals, trajectory,
        )
    if raise_on_failure and not converged.all():
        failed = np.flatnonzero(~converged)
        nonfinite = failed[np.isinf(residuals[failed])]
        parts = []
        if nonfinite.size:
            first = int(nonfinite[0])
            parts.append(
                f"{nonfinite.size} produced non-finite values (point "
                f"{first} at iteration {int(iterations[first])})"
            )
        slow = failed.size - nonfinite.size
        if slow:
            worst = float(np.max(residuals[failed][np.isfinite(
                residuals[failed])]))
            parts.append(
                f"{slow} missed tol {tol:.3e} after {max_iter} iterations "
                f"(worst residual {worst:.3e})"
            )
        raise ConvergenceError(
            f"batched fixed point failed for {failed.size}/{n_points} "
            f"point(s) {failed.tolist()[:10]}: " + "; ".join(parts)
        )
    return BatchFixedPointResult(x, iterations, residuals, converged)


def solve_scalar_fixed_point(
    func: Callable[[float], float],
    lower: float,
    upper: float,
    *,
    tol: float = 1e-12,
    expand: float = 2.0,
    max_expansions: int = 64,
) -> float:
    """Solve ``R = F[R]`` for a scalar decreasing recursion by bracketing.

    Brent's method is applied to ``g(R) = F[R] - R`` on ``[lower, upper]``.
    If the bracket does not straddle a root (``g`` same sign at both ends),
    the upper end is geometrically expanded up to ``max_expansions`` times
    -- useful because the analytical upper bound of Eq. 5.12 is only proven
    for particular ``C^2``.

    Returns the root ``R*``.
    """
    if lower >= upper:
        raise ValueError(f"need lower < upper, got [{lower!r}, {upper!r}]")

    def g(r: float) -> float:
        return func(r) - r

    g_low = g(lower)
    if g_low == 0.0:
        return lower
    if g_low < 0.0:
        # F decreasing => g decreasing; g(lower) < 0 means the fixed point
        # is below `lower`, which for LoPC means no contention: clamp.
        return lower
    g_up = g(upper)
    expansions = 0
    while g_up > 0.0 and expansions < max_expansions:
        upper = lower + (upper - lower) * expand
        g_up = g(upper)
        expansions += 1
    if g_up > 0.0:
        raise ConvergenceError(
            f"could not bracket fixed point: g({upper!r}) = {g_up!r} > 0"
        )
    return float(brentq(g, lower, upper, xtol=tol, rtol=8.881784197001252e-16))
