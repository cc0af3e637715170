"""Named point evaluators: the string-keyed registry the sweeps map over.

An evaluator is a plain top-level function ``params -> values`` where
both sides are flat JSON-serialisable mappings -- top-level so it
pickles into :class:`~concurrent.futures.ProcessPoolExecutor` workers,
JSON-flat so results cache and export without adapters.  Value keys
beginning with ``_`` (e.g. ``_events``) are lifted into the record's
``meta`` by :func:`evaluate_point` rather than appearing as columns.

Since the scenario facade landed, this module is a *compatibility
shim*: the built-in evaluators are declared once, as backends of the
:class:`~repro.api.scenario.Scenario` classes in
:mod:`repro.api.scenarios`, and registered here under their historical
string names at import time.  Existing spec files, cached records and
the ``register_evaluator`` API are unaffected -- same names, same
parameters, same cache keys -- and runtime registration of new
evaluators keeps working exactly as before.

Built-in evaluators (see :mod:`repro.api.scenarios` for the bodies)
-------------------------------------------------------------------
``alltoall-model``     LoPC AMVA solution of the Section-5 all-to-all.
``alltoall-sim``       Event-driven simulation of the same workload.
``alltoall-bounds``    Eq. 5.12 contention-free / rule-of-thumb bounds.
``workpile-model``     LoPC client-server workpile solution (Chapter 6).
``workpile-sim``       Simulated workpile for one ``(Ps, Pc)`` split.
``workpile-bounds``    LogP-style optimistic saturation bounds.
``multiclass-mva``     Exact or approximate multi-class MVA; classes are
                       encoded as flat ``N{c}`` / ``Z{c}`` / ``D{c}_{k}``
                       scalars.
``nonblocking-model``  Windowed non-blocking LoPC fixed point (k=0 means
                       an unbounded window).
``nonblocking-sim``    Measured issue rate of the non-blocking workload.

Batch capability
----------------
Analytic evaluators can additionally *advertise batch capability* via
:func:`register_batch_evaluator`: a companion function that takes the
whole list of cache-miss parameter dicts and evaluates them in one
vectorized call.  The sweep runner prefers the batch path when one is
registered -- one masked numpy fixed point instead of thousands of
scalar solves or process-pool round-trips -- and the values are
bit-identical to the scalar evaluator's, so cache records from either
path are interchangeable.  Simulation evaluators register no batch
function and keep the pool.

Every registered name maps to one :class:`_Entry` in ``_REGISTRY``
holding its scalar ``func``, optional ``batch`` companion and declared
``defaults``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

__all__ = [
    "evaluate_batch",
    "evaluate_point",
    "evaluator_defaults",
    "get_batch_evaluator",
    "get_evaluator",
    "list_evaluators",
    "machine_from_params",
    "register_batch_evaluator",
    "register_evaluator",
]

Evaluator = Callable[[Mapping[str, object]], dict[str, object]]
BatchEvaluator = Callable[[Sequence[Mapping[str, object]]], "list[dict[str, object]]"]


@dataclass
class _Entry:
    """One registered evaluator: scalar function, batch companion, defaults."""

    func: Evaluator
    batch: BatchEvaluator | None = None
    defaults: dict[str, object] = field(default_factory=dict)


_REGISTRY: dict[str, _Entry] = {}


def _entry(name: str) -> _Entry:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown evaluator {name!r}; known: {known}") from None


def register_evaluator(
    name: str, defaults: Mapping[str, object] | None = None
) -> Callable[[Evaluator], Evaluator]:
    """Decorator adding a point evaluator to the registry.

    ``defaults`` declares result-affecting parameters the evaluator
    fills in when a spec omits them.  The runner merges them into each
    point's params *before* cache keying and dispatch, so an omitted
    parameter and its explicit default hit the same cache record, and a
    later change to a default cannot silently reuse stale records.

    Evaluators registered at runtime (outside this module) are only
    visible to ``jobs > 1`` pools on fork-start platforms (Linux);
    spawn-start workers re-import this module and see just the
    built-ins.  Register in an importable module if that matters.
    """

    def deco(func: Evaluator) -> Evaluator:
        existing = _REGISTRY.get(name)
        if existing is not None:
            raise ValueError(
                f"evaluator {name!r} already registered by module "
                f"{existing.func.__module__} ({existing.func.__qualname__}); "
                "pick a different name"
            )
        _REGISTRY[name] = _Entry(func, defaults=dict(defaults or {}))
        return func

    return deco


def register_batch_evaluator(
    name: str,
) -> Callable[[BatchEvaluator], BatchEvaluator]:
    """Decorator advertising batch capability for a registered evaluator.

    The decorated function receives the full list of parameter dicts of
    a sweep's cache misses and must return one value dict per point, in
    order, with exactly the values the scalar evaluator would produce
    (the runner caches them under the same keys).  Only register a batch
    function whose output is bit-identical to the scalar path --
    anything else silently forks cached and fresh results.
    """

    def deco(func: BatchEvaluator) -> BatchEvaluator:
        entry = _entry(name)  # batch capability extends a scalar evaluator
        existing = entry.batch
        if existing is not None:
            raise ValueError(
                f"batch evaluator {name!r} already registered by module "
                f"{existing.__module__} ({existing.__qualname__}); "
                "pick a different name"
            )
        entry.batch = func
        return func

    return deco


def get_batch_evaluator(name: str) -> BatchEvaluator | None:
    """The batch companion of evaluator ``name``, or None."""
    return _entry(name).batch


def evaluator_defaults(name: str) -> dict[str, object]:
    """Declared result-affecting defaults of a registered evaluator."""
    return dict(_entry(name).defaults)


def get_evaluator(name: str) -> Evaluator:
    return _entry(name).func


def list_evaluators() -> list[str]:
    """Registered evaluator names, sorted so docs and CLI help are stable."""
    return sorted(_REGISTRY)


def evaluate_point(task: tuple[str, dict]) -> dict[str, object]:
    """Worker entry point: evaluate one ``(evaluator, params)`` task.

    Returns a record ``{"values": ..., "meta": ...}``; the meta side
    carries the wall time of the evaluation and any ``_``-prefixed
    values the evaluator emitted (``_events`` becomes ``meta["events"]``).
    Top-level (not a closure) so it pickles into pool workers.
    """
    name, params = task
    func = get_evaluator(name)
    start = time.perf_counter()
    raw = func(params)
    wall = time.perf_counter() - start
    return _split_record(raw, wall)


def _split_record(raw: Mapping[str, object], wall: float,
                  batched: bool = False) -> dict[str, object]:
    values = {k: v for k, v in raw.items() if not k.startswith("_")}
    meta: dict[str, object] = {"wall_time": wall}
    if batched:
        meta["batched"] = True
    for key, value in raw.items():
        if key.startswith("_"):
            meta[key[1:]] = value
    return {"values": values, "meta": meta}


def evaluate_batch(
    name: str, params_list: Sequence[Mapping[str, object]]
) -> list[dict[str, object]]:
    """Evaluate many points through an evaluator's batch companion.

    Returns records shaped exactly like :func:`evaluate_point`'s, in
    input order.  ``meta["wall_time"]`` is each point's share of the one
    vectorized call (the quantity sweeps aggregate), and
    ``meta["batched"]`` marks the provenance.
    """
    entry = _REGISTRY.get(name)
    func = entry.batch if entry is not None else None
    if func is None:
        raise KeyError(f"evaluator {name!r} has no batch companion")
    if not params_list:
        return []
    start = time.perf_counter()
    raw_values = func(params_list)
    wall = time.perf_counter() - start
    if len(raw_values) != len(params_list):
        raise ValueError(
            f"batch evaluator {name!r} returned {len(raw_values)} records "
            f"for {len(params_list)} points"
        )
    share = wall / len(params_list)
    return [_split_record(raw, share, batched=True) for raw in raw_values]


# ---------------------------------------------------------------------------
# Built-in registration: one walk over the scenario declarations.
#
# These imports sit at the *bottom* deliberately: repro.api.study pulls
# the runner (and therefore this module) back in, and the import cycle
# only resolves because everything the runner needs is already defined
# by the time the scenario classes load.  `machine_from_params` is
# re-exported for compatibility -- it predates the facade.
# ---------------------------------------------------------------------------
from repro.api.scenarios import SCENARIO_CLASSES as _SCENARIO_CLASSES  # noqa: E402
from repro.api.scenarios import machine_from_params  # noqa: E402,F401

for _scenario_cls in _SCENARIO_CLASSES:
    for _backend in _scenario_cls.backends:
        register_evaluator(
            _backend.evaluator, defaults=_backend.defaults or None
        )(_backend.func)
        if _backend.batch is not None:
            register_batch_evaluator(_backend.evaluator)(_backend.batch)
del _scenario_cls, _backend
