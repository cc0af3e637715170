"""Replaying fuzz streams through the facade's Study/sweep machinery.

The generators in :mod:`repro.fuzz.generators` and the sweep engine
grew up separately: the fuzzer bulk-solves raw parameter dicts through
the batch kernels, the facade compiles :class:`~repro.api.study.Study`
axes down to cached :class:`~repro.sweep.spec.SweepSpec` runs.  This
module is the adapter between the two:

* :func:`fuzz_study` / :func:`fuzz_studies` lift a seeded fuzz stream
  into lockstep :class:`~repro.sweep.spec.ZipAxis` studies -- every
  fuzzed point becomes one sweep row, so a fuzz corpus replays through
  the *production* path (cache, batching, telemetry)
  instead of the fuzzer's private solve loop;
* :func:`fuzz_axis` derives a seeded :class:`~repro.sweep.spec.RandomAxis`
  over one parameter's declared schema range, for randomised sweeps and
  the :mod:`repro.fuzz.opt_invariants` search boxes.

Seed derivation matches the fuzzer's discipline: everything downstream
of ``(scenario, seed)`` is deterministic, so any failure replays.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.fuzz.generators import _DOMAIN, _rng_for, generate_points

__all__ = ["fuzz_axis", "fuzz_studies", "fuzz_study"]


def _signature(params: Mapping[str, object]) -> tuple[str, ...]:
    return tuple(sorted(params))


def fuzz_study(
    scenario: str,
    count: int,
    seed: int,
    **study_kwargs: object,
):
    """One :class:`~repro.api.study.Study` replaying ``count`` fuzzed
    points of ``scenario`` as lockstep sweep rows.

    All points must share one parameter signature (fixed-shape
    generators: alltoall, sharedmem, workpile, nonblocking).  For
    variable-shape generators (multiclass, general) use
    :func:`fuzz_studies`, which groups by signature.  ``study_kwargs``
    (``jobs``, ``cache``, ``batch`` ...) pass through to
    :meth:`~repro.api.scenario.Scenario.study`.
    """
    studies = fuzz_studies(scenario, count, seed, **study_kwargs)
    if len(studies) != 1:
        raise ValueError(
            f"fuzz_study: {scenario!r} generated {len(studies)} distinct "
            "parameter signatures; use fuzz_studies() for variable-shape "
            "generators"
        )
    return studies[0]


def fuzz_studies(
    scenario: str,
    count: int,
    seed: int,
    **study_kwargs: object,
) -> list:
    """Fuzzed points of ``scenario`` as Studies, one per parameter
    signature, in first-seen order.

    Each study carries a :class:`~repro.sweep.spec.ZipAxis` with one
    row per fuzzed point (generation order preserved within a
    signature), named ``fuzz-<scenario>-s<seed>/<i>`` so cache
    provenance stays readable.
    """
    from repro.api import get_scenario_class
    from repro.sweep import ZipAxis

    cls = get_scenario_class(scenario)
    points = generate_points(scenario, count, seed)
    groups: dict[tuple[str, ...], list[Mapping[str, object]]] = {}
    for params in points:
        groups.setdefault(_signature(params), []).append(params)

    studies = []
    for index, (names, members) in enumerate(groups.items()):
        axis = ZipAxis(
            names=names,
            rows=[tuple(p[name] for name in names) for p in members],
        )
        # The axis instance keyword is arbitrary (the axis carries its
        # own parameter names); "rows" cannot collide with any schema
        # parameter because the paper's notation is single-token.
        studies.append(
            cls().study(
                name=f"fuzz-{scenario}-s{seed}/{index}",
                rows=axis,
                **study_kwargs,
            )
        )
    return studies


def fuzz_axis(
    scenario: str,
    param: str,
    count: int,
    seed: int,
    *,
    span: tuple[float, float] | None = None,
):
    """A seeded :class:`~repro.sweep.spec.RandomAxis` over ``param``'s
    declared schema range (or an explicit ``span`` inside it).

    The axis seed derives from the fuzz domain tag and ``(scenario,
    seed, param)``, so the same call always expands to the same values
    -- and never collides with the point-generator streams, which salt
    on point index instead.
    """
    from repro.api import get_scenario_class
    from repro.sweep import RandomAxis

    cls = get_scenario_class(scenario)
    entry = cls.find_param(param)
    if entry is None:
        known = ", ".join(cls.param_names())
        raise KeyError(f"{scenario!r} has no parameter {param!r}; "
                       f"schema: {known}")
    if span is not None:
        lo, hi = float(span[0]), float(span[1])
    elif entry.optimizable:
        lo, hi = float(entry.lo), float(entry.hi)
    else:
        raise ValueError(
            f"{scenario}.{param} declares no (lo, hi) range; pass span="
        )
    salt = int.from_bytes(param.encode(), "big") % (2**16)
    derived = int(
        np.random.default_rng((_DOMAIN, int(seed), salt)).integers(2**31)
    )
    return RandomAxis(
        name=param,
        low=lo,
        high=hi,
        count=count,
        seed=derived,
        integer=entry.type is int,
        log=not (entry.type is int) and lo > 0 and hi / lo >= 100.0,
    )


def _box_for(
    scenario: str, param: str, seed: int
) -> tuple[float, float]:
    """A randomised sub-box of ``param``'s declared range, seeded like
    the fuzz streams (used by the opt invariant suite)."""
    from repro.api import get_scenario_class

    cls = get_scenario_class(scenario)
    entry = cls.find_param(param)
    lo, hi = float(entry.lo), float(entry.hi)
    rng = _rng_for(scenario, seed, int.from_bytes(param.encode(), "big"))
    # Keep at least ~40% of the declared span so searches stay
    # interesting; snap integer axes outward to a >= 8-point lattice.
    a = lo + (hi - lo) * rng.uniform(0.0, 0.3)
    b = hi - (hi - lo) * rng.uniform(0.0, 0.3)
    if entry.type is int:
        a, b = int(round(a)), int(round(b))
        if b - a < 8:
            a, b = int(lo), int(hi)
    return a, b
