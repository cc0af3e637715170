"""Exact and approximate MVA for closed *multi-class* networks.

The single-class recursion (:mod:`repro.mva.exact`) extends to ``C``
customer classes with population vector ``N = (N_1, ..., N_C)``,
per-class demands ``D_{c,k}`` and think times ``Z_c`` (Reiser &
Lavenberg 1980).  For every population vector ``n <= N`` (component
wise), with ``e_c`` the unit vector of class ``c``::

    R_{c,k}(n) = D_{c,k} * (1 + Q_k(n - e_c))    queueing centre
    R_{c,k}(n) = D_{c,k}                          delay centre
    X_c(n)     = n_c / (Z_c + sum_k R_{c,k}(n))
    Q_k(n)     = sum_c X_c(n) * R_{c,k}(n)

Cost is ``prod_c (N_c + 1)`` lattice points -- fine for the validation
cases this library needs (e.g. a workpile with two client classes of
different chunk sizes, which is product-form when handlers are
exponential and therefore provides *ground truth* for the heterogeneous
Appendix-A LoPC model).

:func:`multiclass_amva` is the approximate counterpart: like the
single-class Bard/Schweitzer iteration (:mod:`repro.mva.amva`) it
replaces the Arrival Theorem's ``Q_k(N - e_c)`` with an estimate built
from the full-population queues, turning the lattice recursion into a
fixed point whose cost is independent of the populations:

* **Bard**:        ``A_{c,k} ~= Q_k(N)``
* **Schweitzer**:  ``A_{c,k} ~= Q_k(N) - Q_{c,k}(N) / N_c``

(Schweitzer removes exactly the class's own average self-term.)  For a
single class both reduce to the :func:`repro.mva.amva` iterations
bit for bit -- the update arithmetic is the same IEEE elementwise
operations, which the test suite asserts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mva.network import normalize_multiclass
from repro.obs import context as _obs_context
from repro.obs import observe_scalar_solve

__all__ = [
    "MultiClassAMVAResult",
    "MultiClassMVAResult",
    "multiclass_amva",
    "multiclass_mva",
]

_AMVA_METHODS = ("bard", "schweitzer")


@dataclass(frozen=True)
class MultiClassMVAResult:
    """Solution at the full population vector.

    Attributes
    ----------
    populations:
        The class populations ``(N_1, ..., N_C)``.
    throughputs:
        Per-class throughput ``X_c``.
    response_times:
        ``R[c, k]`` per class and centre.
    queue_lengths:
        ``Q_k`` total mean customers per centre.
    class_queue_lengths:
        ``Q[c, k]`` per class and centre (``X_c * R_{c,k}``).
    cycle_times:
        Per-class total cycle ``Z_c + sum_k R_{c,k}``.
    """

    populations: tuple[int, ...]
    throughputs: np.ndarray
    response_times: np.ndarray
    queue_lengths: np.ndarray
    class_queue_lengths: np.ndarray
    cycle_times: np.ndarray


@dataclass(frozen=True)
class MultiClassAMVAResult:
    """Fixed point of a multi-class approximate-MVA iteration.

    Same solution fields as :class:`MultiClassMVAResult` plus the
    fixed-point diagnostics (``method``, ``iterations``, ``converged``).
    """

    method: str
    populations: tuple[int, ...]
    throughputs: np.ndarray
    response_times: np.ndarray
    queue_lengths: np.ndarray
    class_queue_lengths: np.ndarray
    cycle_times: np.ndarray
    iterations: int
    converged: bool


def multiclass_mva(
    demands: Sequence[Sequence[float]],
    populations: Sequence[int],
    think_times: Sequence[float] | None = None,
    kinds: Sequence[str] | None = None,
) -> MultiClassMVAResult:
    """Solve a closed multi-class product-form network exactly.

    Parameters
    ----------
    demands:
        ``C x K`` matrix of per-class service demands ``D_{c,k}``.
    populations:
        Class populations ``N_c >= 0``.
    think_times:
        Per-class think time ``Z_c`` (default 0).
    kinds:
        Per-centre kind (``"queueing"`` default, or ``"delay"``).

    Notes
    -----
    Runtime and memory are ``O(K * prod(N_c + 1))``; intended for the
    modest populations used in validation, not capacity planning.  A
    class with ``N_c >= 1``, zero think time and all-zero demands has no
    finite steady state and raises :class:`ValueError`, matching the
    single-class validation in :mod:`repro.mva.network`.
    """
    demand_arr, pops, think, _, is_queueing = normalize_multiclass(
        demands, populations, think_times, kinds
    )
    n_classes, n_centers = demand_arr.shape
    total_points = int(np.prod([n + 1 for n in pops]))
    if total_points > 2_000_000:
        raise ValueError(
            f"population lattice has {total_points} points; this exact "
            "solver is meant for validation-sized problems"
        )

    # Iterate the lattice in order of total population so that n - e_c is
    # always already solved.  Store Q_k(n) per lattice point.
    queue_store: dict[tuple[int, ...], np.ndarray] = {
        tuple([0] * n_classes): np.zeros(n_centers)
    }

    responses = np.zeros((n_classes, n_centers))
    throughputs = np.zeros(n_classes)

    lattice = sorted(
        itertools.product(*(range(n + 1) for n in pops)), key=sum
    )
    for point in lattice:
        if sum(point) == 0:
            continue
        responses_at = np.zeros((n_classes, n_centers))
        x_at = np.zeros(n_classes)
        for c in range(n_classes):
            if point[c] == 0:
                continue
            prev = list(point)
            prev[c] -= 1
            q_prev = queue_store[tuple(prev)]
            responses_at[c] = np.where(
                is_queueing, demand_arr[c] * (1.0 + q_prev), demand_arr[c]
            )
            # denom > 0 always: a class that can be populated here has a
            # positive demand or think time (degenerate inputs rejected).
            denom = think[c] + responses_at[c].sum()
            x_at[c] = point[c] / denom
        queue_store[point] = (x_at[:, None] * responses_at).sum(axis=0)
        if point == pops:
            responses = responses_at
            throughputs = x_at

    full = tuple(pops)
    class_queues = throughputs[:, None] * responses
    return MultiClassMVAResult(
        populations=full,
        throughputs=throughputs,
        response_times=responses,
        queue_lengths=queue_store[full],
        class_queue_lengths=class_queues,
        cycle_times=think + responses.sum(axis=1),
    )


def multiclass_amva(
    demands: Sequence[Sequence[float]],
    populations: Sequence[int],
    think_times: Sequence[float] | None = None,
    kinds: Sequence[str] | None = None,
    method: str = "bard",
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> MultiClassAMVAResult:
    """Approximate MVA for a closed multi-class network.

    The fixed point iterates, from an even per-class split of each
    population over the queueing centres::

        A_{c,k} = Q_k                                       (Bard)
                = sum_{j != c} Q_{j,k} + Q_{c,k} (N_c-1)/N_c  (Schweitzer)
        R_{c,k} = D_{c,k} (1 + A_{c,k})    queueing centre
        X_c     = N_c / (Z_c + sum_k R_{c,k})
        Q_{c,k} = X_c R_{c,k}

    until the class-queue matrix moves less than ``tol`` (absolute
    infinity norm, the single-class :mod:`repro.mva.amva` convention).
    Classes with ``N_c = 0`` are inert: zero throughput and queues, but
    their response times still report what a class customer *would* see.
    """
    if method not in _AMVA_METHODS:
        raise ValueError(
            f"unknown AMVA method {method!r}; use one of {_AMVA_METHODS}"
        )
    demand_arr, pops, think, _, is_queueing = normalize_multiclass(
        demands, populations, think_times, kinds
    )
    n_classes, n_centers = demand_arr.shape
    pop_arr = np.asarray(pops, dtype=float)
    active = pop_arr > 0

    # Same start as the single-class solver, per class: an even split of
    # the class population over the queueing centres.
    n_queueing = max(int(is_queueing.sum()), 1)
    queues = np.where(is_queueing, pop_arr[:, None] / n_queueing, 0.0)
    # Schweitzer's self-term factor (N_c - 1) / N_c; inert classes have
    # zero queues so the guard value never contributes.
    self_factor = np.where(active, (pop_arr - 1.0) / np.maximum(pop_arr, 1.0),
                           0.0)

    responses = demand_arr.copy()
    throughputs = np.zeros(n_classes)
    totals = think + responses.sum(axis=1)
    iterations = 0
    converged = False
    delta = float("inf")
    for iteration in range(1, max_iter + 1):
        total_q = queues.sum(axis=0)
        if method == "bard":
            arrival = np.broadcast_to(total_q, (n_classes, n_centers))
        else:
            # (total - self) + self * (N_c-1)/N_c: for a single class the
            # left term is exactly 0.0, so this reduces bit-for-bit to
            # the single-class Schweitzer arrival `factor * queues`.
            arrival = (total_q[None, :] - queues) + queues * self_factor[:, None]
        responses = np.where(
            is_queueing, demand_arr * (1.0 + arrival), demand_arr
        )
        totals = think + responses.sum(axis=1)
        # Inert classes (and only those) may have totals == 0; the
        # where= mask keeps the division warning-free.
        throughputs = np.zeros(n_classes)
        np.divide(pop_arr, totals, out=throughputs, where=active)
        new_queues = throughputs[:, None] * responses
        delta = np.max(np.abs(new_queues - queues))
        queues = new_queues
        iterations = iteration
        if delta < tol:
            converged = True
            break

    tel = _obs_context.active()
    if tel is not None:
        # Same stat family as the batch kernel, so scalar and batched
        # solves of the same networks aggregate together.
        observe_scalar_solve(
            tel, f"mva.multiclass.{method}", iterations, float(delta),
            converged,
        )
    return MultiClassAMVAResult(
        method=method,
        populations=tuple(pops),
        throughputs=throughputs,
        response_times=responses,
        queue_lengths=queues.sum(axis=0),
        class_queue_lengths=queues,
        cycle_times=totals,
        iterations=iterations,
        converged=converged,
    )
