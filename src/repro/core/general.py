"""The general LoPC model (paper Appendix A).

Handles arbitrary, heterogeneous communication patterns: each of the ``P``
nodes hosts one thread ``c`` with its own mean work ``W_c`` between
blocking requests and its own *visit ratios* ``V_ck`` -- the mean number
of request-handler visits thread ``c``'s cycle makes to node ``k``.  Rows
may sum to more than 1, modelling multi-hop requests that are forwarded
through intermediate nodes before the final node replies to the
originator.  Threads with no work/visits (e.g. workpile servers) simply
never contribute throughput.

Equation system (paper numbering)::

    X_c   = 1 / R_c                                 (A.1, Little per thread)
    X_ck  = V_ck X_c                                (A.2)
    Uq_k  = So sum_c X_ck                           (A.3)
    Uy_k  = X_k So                                  (A.4, replies come home)
    Qq_k  = Rq_k sum_c X_ck                         (A.5)
    Qy_k  = X_k Ry_k                                (A.6)
    Rq_k  = So (1 + Qq_k + Qy_k [+ C^2 corr])       (A.7 / 5.9)
    Ry_k  = So (1 + Qq_k        [+ C^2 corr])       (A.8 / 5.10)
    Rw_k  = (W_k + So Qq_k) / (1 - Uq_k)            (A.9, BKT)
          =  W_k                                     (protocol processor)
    R_c   = Rw_c + sum_k V_ck (St + Rq_k) + St + Ry_c   (A.10)

The homogeneous all-to-all model (Section 5) and the workpile model
(Section 6) are exact special cases; the test suite verifies both
reductions numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.params import MachineParams
from repro.core.results import ModelSolution
from repro.core.solver import solve_fixed_point, solve_fixed_point_batch

__all__ = [
    "GeneralLoPCModel",
    "GeneralSolution",
    "ThreadClass",
    "solve_general_batch",
]

#: Floor for the BKT denominator during transient iterations (see
#: GeneralLoPCModel._update); converged solutions are validated separately.
_BKT_DENOM_FLOOR = 0.02


@dataclass(frozen=True)
class ThreadClass:
    """A group of identically-behaving threads, for model construction.

    Attributes
    ----------
    name:
        Label used in reports ("client", "server", ...).
    count:
        How many nodes host a thread of this class.
    work:
        Mean computation ``W`` between requests, or ``None`` for a passive
        thread that never issues requests (a pure server).
    """

    name: str
    count: int
    work: float | None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count!r}")
        if self.work is not None and self.work < 0:
            raise ValueError(f"work must be >= 0 or None, got {self.work!r}")

    @property
    def active(self) -> bool:
        return self.work is not None


@dataclass(frozen=True)
class GeneralSolution:
    """Per-node / per-thread solution of the general LoPC model.

    Arrays are indexed by node id ``0 .. P-1`` (thread ``c`` lives on node
    ``c``).  Passive threads have ``response_times = inf`` and zero
    throughput.
    """

    response_times: np.ndarray  # R_c
    compute_residences: np.ndarray  # Rw_c
    request_residences: np.ndarray  # Rq_k
    reply_residences: np.ndarray  # Ry_k
    throughputs: np.ndarray  # X_c
    request_queues: np.ndarray  # Qq_k
    reply_queues: np.ndarray  # Qy_k
    request_utilizations: np.ndarray  # Uq_k
    reply_utilizations: np.ndarray  # Uy_k
    works: np.ndarray  # W_c (nan for passive)
    latency: float
    handler_time: float
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    @property
    def system_throughput(self) -> float:
        """Total request completion rate ``sum_c X_c``."""
        return float(self.throughputs.sum())

    @property
    def active(self) -> np.ndarray:
        """Boolean mask of nodes whose thread issues requests."""
        return np.isfinite(self.response_times)

    def node_solution(self, node: int) -> ModelSolution:
        """Project one node's figures into a :class:`ModelSolution`.

        Only meaningful for active threads (passive threads have no
        compute/request cycle).
        """
        if not self.active[node]:
            raise ValueError(f"thread on node {node} is passive (no cycle)")
        return ModelSolution(
            response_time=float(self.response_times[node]),
            compute_residence=float(self.compute_residences[node]),
            request_residence=float(self.request_residences[node]),
            reply_residence=float(self.reply_residences[node]),
            throughput=float(self.throughputs[node]),
            request_queue=float(self.request_queues[node]),
            reply_queue=float(self.reply_queues[node]),
            request_utilization=float(self.request_utilizations[node]),
            reply_utilization=float(self.reply_utilizations[node]),
            work=float(self.works[node]),
            latency=self.latency,
            handler_time=self.handler_time,
            meta=dict(self.meta, node=node),
        )


class GeneralLoPCModel:
    """Appendix-A LoPC: arbitrary visit matrices, heterogeneous threads.

    Parameters
    ----------
    machine:
        Architectural parameters ``(St, So, P, C^2)``.
    works:
        Length-``P`` sequence of per-thread work ``W_c``; ``None`` (or
        ``nan``) marks a passive thread that never issues requests.
    visits:
        ``P x P`` matrix of visit ratios ``V_ck`` (mean request-handler
        visits to node ``k`` per cycle of thread ``c``).  Rows of passive
        threads must be zero.  ``V_cc`` must be zero -- a node does not
        send itself messages through the network.
    protocol_processor:
        If True, handlers run on a dedicated protocol processor
        (``Rw_k = W_k``).
    """

    def __init__(
        self,
        machine: MachineParams,
        works: Sequence[float | None],
        visits: np.ndarray | Sequence[Sequence[float]],
        *,
        protocol_processor: bool = False,
        damping: float = 0.5,
        tol: float = 1e-12,
        max_iter: int = 100_000,
    ) -> None:
        if machine.gap != 0.0:
            raise ValueError(
                "LoPC assumes balanced network bandwidth (gap g = 0); "
                f"got gap={machine.gap!r}"
            )
        p = machine.processors
        works_arr = np.array(
            [np.nan if w is None else float(w) for w in works], dtype=float
        )
        if works_arr.shape != (p,):
            raise ValueError(
                f"works must have length P={p}, got {works_arr.shape}"
            )
        if np.any(works_arr[np.isfinite(works_arr)] < 0):
            raise ValueError("active works must be >= 0")

        visit_arr = np.asarray(visits, dtype=float)
        if visit_arr.shape != (p, p):
            raise ValueError(
                f"visits must be a {p}x{p} matrix, got shape {visit_arr.shape}"
            )
        if np.any(visit_arr < 0):
            raise ValueError("visit ratios must be >= 0")
        if np.any(np.diag(visit_arr) != 0):
            raise ValueError("self-visits V_cc must be zero")
        active = np.isfinite(works_arr)
        if not active.any():
            raise ValueError("at least one thread must be active")
        if np.any(visit_arr[~active].sum(axis=1) > 0):
            raise ValueError("passive threads must have zero visit rows")
        if np.any(np.isclose(visit_arr[active].sum(axis=1), 0.0)):
            raise ValueError(
                "active threads must visit at least one node per cycle"
            )

        self.machine = machine
        self.works = works_arr
        self.visits = visit_arr
        self.active = active
        self.protocol_processor = protocol_processor
        self.damping = damping
        self.tol = tol
        self.max_iter = max_iter

    # ------------------------------------------------------------------
    # Builders for the paper's two reference patterns
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous_alltoall(
        cls, machine: MachineParams, work: float, **kwargs: object
    ) -> "GeneralLoPCModel":
        """Uniform random all-to-all: ``V_ck = 1/(P-1)`` off-diagonal."""
        p = machine.processors
        visits = np.full((p, p), 1.0 / (p - 1))
        np.fill_diagonal(visits, 0.0)
        return cls(machine, [work] * p, visits, **kwargs)

    @classmethod
    def client_server(
        cls,
        machine: MachineParams,
        work: float,
        servers: int,
        **kwargs: object,
    ) -> "GeneralLoPCModel":
        """Workpile: nodes ``0..Ps-1`` are passive servers, the rest are
        clients visiting each server with ratio ``1/Ps``."""
        p = machine.processors
        if not 1 <= servers <= p - 1:
            raise ValueError(f"servers must lie in [1, {p - 1}], got {servers!r}")
        works: list[float | None] = [None] * servers + [work] * (p - servers)
        visits = np.zeros((p, p))
        visits[servers:, :servers] = 1.0 / servers
        return cls(machine, works, visits, **kwargs)

    @classmethod
    def multi_hop_ring(
        cls,
        machine: MachineParams,
        work: float,
        hops: int,
        **kwargs: object,
    ) -> "GeneralLoPCModel":
        """Requests forwarded ``hops`` times around a ring before replying.

        Thread ``c`` visits nodes ``c+1, ..., c+hops`` (mod P), each once
        per cycle; the row sum is ``hops`` > 1 for multi-hop patterns.

        Note: the *deterministic* simulated counterpart of this pattern
        self-synchronises into a contention-free schedule (the
        Brewer/Kuszmaul CM-5 effect the paper's introduction describes);
        use :meth:`random_multihop` traffic when validating the model.
        """
        p = machine.processors
        if not 1 <= hops <= p - 1:
            raise ValueError(f"hops must lie in [1, {p - 1}], got {hops!r}")
        visits = np.zeros((p, p))
        for c in range(p):
            for h in range(1, hops + 1):
                visits[c, (c + h) % p] = 1.0
        return cls(machine, [work] * p, visits, **kwargs)

    @classmethod
    def random_multihop(
        cls,
        machine: MachineParams,
        work: float,
        hops: int,
        **kwargs: object,
    ) -> "GeneralLoPCModel":
        """Requests forwarded through ``hops`` uniformly random nodes.

        Expected visit ratio ``V_ck = hops/(P-1)`` off-diagonal (row sums
        of ``hops`` -- multi-hop in the Appendix-A sense).
        """
        p = machine.processors
        if not 1 <= hops <= p - 1:
            raise ValueError(f"hops must lie in [1, {p - 1}], got {hops!r}")
        visits = np.full((p, p), hops / (p - 1))
        np.fill_diagonal(visits, 0.0)
        return cls(machine, [work] * p, visits, **kwargs)

    # ------------------------------------------------------------------
    def _unpack(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = self.machine.processors
        return state[:p], state[p : 2 * p], state[2 * p :]

    def _update(self, state: np.ndarray) -> np.ndarray:
        m = self.machine
        so, st, cv2 = m.handler_time, m.latency, m.handler_cv2
        rw, rq, ry = self._unpack(state)
        active = self.active
        works = np.where(active, self.works, 0.0)

        # A.10: total cycle per active thread.
        r = rw + self.visits @ (st + rq) + st + ry
        x = np.where(active, 1.0 / np.maximum(r, 1e-300), 0.0)  # A.1
        arrivals = self.visits.T @ x  # sum_c X_ck per node k  (A.2/A.3)
        uq = so * arrivals  # A.3
        uy = so * x  # A.4 (thread k's replies arrive at node k)
        qq = rq * arrivals  # A.5
        qy = ry * x  # A.6

        corr_q = residual_correction_vec(uq, cv2)
        corr_y = residual_correction_vec(uy, cv2)
        new_rq = so * (1.0 + qq + qy + corr_q + corr_y)  # A.7 / 5.9
        new_ry = so * (1.0 + qq + corr_q)  # A.8 / 5.10
        if self.protocol_processor:
            new_rw = works
        else:
            # Transient iterates can overshoot into Uq >= 1 (e.g. before
            # client response times have grown to reflect server load);
            # clamp the BKT denominator so the iteration can recover.  The
            # converged point is checked for feasibility in solve().
            denom = np.maximum(1.0 - uq, _BKT_DENOM_FLOOR)
            new_rw = (works + so * qq) / denom  # A.9
        return np.concatenate([new_rw, new_rq, new_ry])

    def solve(self) -> GeneralSolution:
        """Solve the Appendix-A system by damped fixed-point iteration."""
        m = self.machine
        p = m.processors
        works0 = np.where(self.active, self.works, 0.0)
        initial = np.concatenate(
            [works0, np.full(p, m.handler_time), np.full(p, m.handler_time)]
        )
        result = solve_fixed_point(
            self._update,
            initial,
            damping=self.damping,
            tol=self.tol,
            max_iter=self.max_iter,
        )
        rw, rq, ry = self._unpack(result.value)
        st, so = m.latency, m.handler_time
        r = rw + self.visits @ (st + rq) + st + ry
        r = np.where(self.active, r, np.inf)
        x = np.where(self.active, 1.0 / r, 0.0)
        arrivals = self.visits.T @ x
        if not self.protocol_processor and np.any(
            so * arrivals >= 1.0 - _BKT_DENOM_FLOOR
        ):
            worst = int(np.argmax(arrivals))
            raise ValueError(
                "modelled pattern saturates node "
                f"{worst} (request-handler utilisation "
                f"{so * arrivals[worst]:.3f}); LoPC requires Uq < 1"
            )
        return GeneralSolution(
            response_times=r,
            compute_residences=np.where(self.active, rw, 0.0),
            request_residences=rq,
            reply_residences=ry,
            throughputs=x,
            request_queues=rq * arrivals,
            reply_queues=ry * x,
            request_utilizations=so * arrivals,
            reply_utilizations=so * x,
            works=self.works,
            latency=st,
            handler_time=so,
            meta={
                "model": "lopc-general",
                "protocol_processor": self.protocol_processor,
                "iterations": result.iterations,
                "residual": result.residual,
                "cv2": m.handler_cv2,
            },
        )


def residual_correction_vec(utilization: np.ndarray, cv2: float) -> np.ndarray:
    """Vectorised ``(C^2 - 1)/2 * U``
    (see :func:`repro.mva.residual.residual_correction`)."""
    if cv2 < 0:
        raise ValueError(f"cv2 must be >= 0, got {cv2!r}")
    return 0.5 * (cv2 - 1.0) * np.asarray(utilization, dtype=float)


# ---------------------------------------------------------------------------
# Vectorized batch entry point
# ---------------------------------------------------------------------------
def solve_general_batch(
    models: Sequence[GeneralLoPCModel],
) -> list[GeneralSolution]:
    """Solve many Appendix-A models in one masked batch fixed point.

    All models must share the same node count ``P`` and the same solver
    controls (``damping``, ``tol``, ``max_iter``) -- the masked
    iteration applies one stopping rule to every point.  Everything else
    (machine scalars, works, visit matrices, ``protocol_processor``) may
    differ point to point.

    The state is the ``(points, 3, P)`` stack of per-node residences
    ``[Rw, Rq, Ry]`` driven through
    :func:`repro.core.solver.solve_fixed_point_batch`; each point
    freezes at its own convergence iteration.  The per-point matrix
    products use batched ``np.matmul``, which reproduces the scalar
    ``visits @ v`` products bit for bit on mainstream BLAS builds
    (asserted by this repo's test environment); results always agree
    with per-model :meth:`GeneralLoPCModel.solve` to solver tolerance.
    ``meta["batched"] = True`` marks the provenance.

    A point that saturates a node (``Uq >= 1``) raises the same
    :class:`ValueError` the scalar path raises, naming the point; a
    point whose iterates go non-finite surfaces as a
    :class:`~repro.core.solver.ConvergenceError` after the loop.
    """
    if len(models) == 0:
        return []
    first = models[0]
    p = first.machine.processors
    for i, model in enumerate(models):
        if model.machine.processors != p:
            raise ValueError(
                f"all models must share P; model 0 has P={p}, model {i} "
                f"has P={model.machine.processors}"
            )
        if (
            model.damping != first.damping
            or model.tol != first.tol
            or model.max_iter != first.max_iter
        ):
            raise ValueError(
                "all models must share damping/tol/max_iter; model "
                f"{i} differs from model 0"
            )

    n_points = len(models)
    so = np.array([m.machine.handler_time for m in models])
    st = np.array([m.machine.latency for m in models])
    cv2 = np.array([m.machine.handler_cv2 for m in models])
    pp = np.array([m.protocol_processor for m in models])
    active = np.stack([m.active for m in models])
    works = np.where(active, np.stack([m.works for m in models]), 0.0)
    visits = np.stack([m.visits for m in models])
    # Keep the transpose a *view*: the scalar path computes
    # ``visits.T @ x`` on the untransposed storage, and matching its
    # BLAS path (transposed gemv) is what keeps batch == scalar bitwise.
    visits_t = visits.transpose(0, 2, 1)

    def update(state: np.ndarray, rows: np.ndarray) -> np.ndarray:
        rw, rq, ry = state[:, 0], state[:, 1], state[:, 2]
        so_r = so[rows][:, np.newaxis]
        st_r = st[rows][:, np.newaxis]
        cv2_r = cv2[rows][:, np.newaxis]
        with np.errstate(all="ignore"):
            # A.10: total cycle per active thread.
            r = rw + np.matmul(
                visits[rows], (st_r + rq)[:, :, np.newaxis]
            )[:, :, 0] + st_r + ry
            x = np.where(
                active[rows], 1.0 / np.maximum(r, 1e-300), 0.0
            )  # A.1
            arrivals = np.matmul(
                visits_t[rows], x[:, :, np.newaxis]
            )[:, :, 0]  # sum_c X_ck per node k  (A.2/A.3)
            uq = so_r * arrivals  # A.3
            uy = so_r * x  # A.4 (thread k's replies arrive at node k)
            qq = rq * arrivals  # A.5
            qy = ry * x  # A.6

            corr_q = 0.5 * (cv2_r - 1.0) * uq
            corr_y = 0.5 * (cv2_r - 1.0) * uy
            new_rq = so_r * (1.0 + qq + qy + corr_q + corr_y)  # A.7 / 5.9
            new_ry = so_r * (1.0 + qq + corr_q)  # A.8 / 5.10
            # See _update: transient Uq >= 1 iterates are clamped so the
            # iteration can recover; converged points are re-checked below.
            denom = np.maximum(1.0 - uq, _BKT_DENOM_FLOOR)
            new_rw = np.where(
                pp[rows][:, np.newaxis], works[rows],
                (works[rows] + so_r * qq) / denom,  # A.9
            )
        return np.stack([new_rw, new_rq, new_ry], axis=1)

    initial = np.stack(
        [works, so[:, np.newaxis] * np.ones((n_points, p)),
         so[:, np.newaxis] * np.ones((n_points, p))],
        axis=1,
    )
    result = solve_fixed_point_batch(
        update,
        initial,
        damping=first.damping,
        tol=first.tol,
        max_iter=first.max_iter,
    )

    rw, rq, ry = result.value[:, 0], result.value[:, 1], result.value[:, 2]
    r = rw + np.matmul(
        visits, (st[:, np.newaxis] + rq)[:, :, np.newaxis]
    )[:, :, 0] + st[:, np.newaxis] + ry
    r = np.where(active, r, np.inf)
    x = np.where(active, 1.0 / r, 0.0)
    arrivals = np.matmul(visits_t, x[:, :, np.newaxis])[:, :, 0]
    uq = so[:, np.newaxis] * arrivals
    saturated = ~pp[:, np.newaxis] & (uq >= 1.0 - _BKT_DENOM_FLOOR)
    if np.any(saturated):
        point = int(np.flatnonzero(np.any(saturated, axis=1))[0])
        worst = int(np.argmax(arrivals[point]))
        raise ValueError(
            f"modelled pattern saturates node {worst} of point {point} "
            f"(request-handler utilisation {uq[point, worst]:.3f}); "
            "LoPC requires Uq < 1"
        )

    solutions = []
    for i, model in enumerate(models):
        solutions.append(
            GeneralSolution(
                response_times=r[i],
                compute_residences=np.where(active[i], rw[i], 0.0),
                request_residences=rq[i],
                reply_residences=ry[i],
                throughputs=x[i],
                request_queues=rq[i] * arrivals[i],
                reply_queues=ry[i] * x[i],
                request_utilizations=uq[i],
                reply_utilizations=so[i] * x[i],
                works=model.works,
                latency=float(st[i]),
                handler_time=float(so[i]),
                meta={
                    "model": "lopc-general",
                    "protocol_processor": bool(pp[i]),
                    "iterations": int(result.iterations[i]),
                    "residual": float(result.residual[i]),
                    "cv2": float(cv2[i]),
                    "batched": True,
                },
            )
        )
    return solutions
