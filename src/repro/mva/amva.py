"""Approximate MVA (Bard / Schweitzer) for closed single-class networks.

Exact MVA recurses over the population ``N`` (see :mod:`repro.mva.exact`).
Approximate MVA replaces the Arrival Theorem's ``Q_k(N-1)`` with an
estimate built from the *same* population, turning the recursion into a
fixed point:

* **Bard (1979)**:        ``A_k(N) ~= Q_k(N)``
* **Schweitzer (1979)**:  ``A_k(N) ~= (N-1)/N * Q_k(N)``

Bard's variant is what the LoPC paper adopts (it yields the closed-form
rules of thumb); Schweitzer's is the common refinement.  Both iterate::

    R_k = D_k * (1 + A_k)        queueing centre
    R_k = D_k                    delay centre
    X   = N / (Z + sum R_k)
    Q_k = X * R_k

until the queue vector stabilises.  Bard over-estimates queue lengths (a
customer "sees itself"); Schweitzer removes exactly the self-term on
average.  The unit tests compare both against exact MVA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mva.network import (
    check_degenerate,
    check_network_scalars,
    normalize_demands,
    normalize_kinds,
)

__all__ = ["AMVAResult", "bard_amva", "schweitzer_amva"]


@dataclass(frozen=True)
class AMVAResult:
    """Fixed point of an approximate-MVA iteration."""

    population: int
    throughput: float
    response_times: np.ndarray
    queue_lengths: np.ndarray
    utilizations: np.ndarray
    cycle_time: float
    iterations: int
    converged: bool


def _amva(
    demands: Sequence[float],
    population: int,
    think_time: float,
    kinds: Sequence[str] | None,
    arrival_factor: float,
    tol: float,
    max_iter: int,
) -> AMVAResult:
    demand_arr = normalize_demands(demands)
    check_network_scalars(population, think_time)
    n_centers = demand_arr.size
    # normalize_kinds materialises `kinds` exactly once; a generator
    # argument used to be exhausted by the length check, leaving an empty
    # queueing mask that broadcast-crashed the iteration below.
    kinds, is_queueing = normalize_kinds(kinds, n_centers)
    check_degenerate(demand_arr, population, think_time)

    if population == 0:
        zeros = np.zeros(n_centers)
        return AMVAResult(0, 0.0, demand_arr.copy(), zeros, zeros,
                          think_time, 0, True)

    # Start from an even split of the population over the queueing centres.
    queues = np.where(is_queueing, population / max(is_queueing.sum(), 1), 0.0)
    throughput = 0.0
    responses = demand_arr.copy()
    for iteration in range(1, max_iter + 1):
        arrival = arrival_factor * queues
        responses = np.where(is_queueing, demand_arr * (1.0 + arrival), demand_arr)
        # total > 0 always: the degenerate zero-demand/zero-think network
        # was rejected up front.
        total = think_time + float(responses.sum())
        throughput = population / total
        new_queues = throughput * responses
        if np.max(np.abs(new_queues - queues)) < tol:
            queues = new_queues
            return AMVAResult(
                population=population,
                throughput=throughput,
                response_times=responses,
                queue_lengths=queues,
                utilizations=throughput * demand_arr,
                cycle_time=total,
                iterations=iteration,
                converged=True,
            )
        queues = new_queues
    return AMVAResult(
        population=population,
        throughput=throughput,
        response_times=responses,
        queue_lengths=queues,
        utilizations=throughput * demand_arr,
        cycle_time=think_time + float(responses.sum()),
        iterations=max_iter,
        converged=False,
    )


def bard_amva(
    demands: Sequence[float],
    population: int,
    think_time: float = 0.0,
    kinds: Sequence[str] | None = None,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> AMVAResult:
    """Bard approximate MVA: arrival queue = full steady-state queue."""
    return _amva(demands, population, think_time, kinds, 1.0, tol, max_iter)


def schweitzer_amva(
    demands: Sequence[float],
    population: int,
    think_time: float = 0.0,
    kinds: Sequence[str] | None = None,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> AMVAResult:
    """Schweitzer approximate MVA: arrival queue = ``(N-1)/N`` of steady state."""
    factor = (population - 1) / population if population > 0 else 0.0
    return _amva(demands, population, think_time, kinds, factor, tol, max_iter)
