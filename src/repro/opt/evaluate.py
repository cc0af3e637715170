"""The bridge from search algorithms to scenario backends.

:class:`BatchObjective` turns a bound :class:`repro.api.Scenario` plus a
set of search axes into the one callback the algorithms in
:mod:`repro.opt.scalar` / :mod:`repro.opt.descent` need: *candidates in,
solved values out*, with every uncached candidate list dispatched as a
single vectorized batch solve (the same ``Backend.batch`` kernels the
sweep runner rides).  It also owns the three accounting facts the
optimizer reports -- solver dispatches, solved points, and the memo that
makes re-offered candidates free.

Points the solver rejects (saturated networks raise ``ValueError``)
evaluate to ``None``; the optimizer treats them as infeasible rather
than aborting the search.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.opt.space import AxisSpec

__all__ = ["BatchObjective"]

#: Exceptions that mean "this point is outside the model's validity
#: domain", not "the optimizer is broken".
_REJECTIONS = (ValueError, FloatingPointError, ZeroDivisionError, OverflowError)


class BatchObjective:
    """Memoized batched evaluation of scenario points along search axes.

    Parameters
    ----------
    scenario:
        A bound scenario instance; its given parameters (plus backend
        defaults) form the base point, the axes override it.
    role:
        Backend role to solve with (``"analytic"`` unless asked
        otherwise -- the optimizer needs cheap, deterministic solves).
    axes:
        The :class:`~repro.opt.space.AxisSpec` search axes.  Every axis
        must name a schema parameter the backend consumes; every
        *required* parameter outside the axes must already be bound.
    """

    def __init__(
        self,
        scenario: object,
        role: str,
        axes: Sequence[AxisSpec],
    ) -> None:
        from repro.api.scenario import Param, Scenario

        if not isinstance(scenario, Scenario):
            raise TypeError(
                f"BatchObjective needs a Scenario instance, got "
                f"{type(scenario).__name__}"
            )
        cls = type(scenario)
        self.scenario = scenario
        self.role = role
        self.backend = cls.backend(role)
        self.axes = tuple(axes)
        if not self.axes:
            raise ValueError("BatchObjective needs at least one axis")

        axis_names = [ax.name for ax in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ValueError(f"duplicate search axes: {axis_names}")
        for name in axis_names:
            if cls.find_param(name) is None:
                raise ValueError(
                    f"unknown parameter {name!r} for scenario {cls.name!r}; "
                    f"known: {', '.join(cls.param_names())}"
                )
            if not cls.backend_accepts(self.backend, name):
                raise ValueError(
                    f"parameter {name!r} is not used by the {role!r} backend "
                    f"of scenario {cls.name!r}"
                )

        base: dict[str, object] = dict(self.backend.defaults)
        for key, value in scenario.given.items():
            if cls.backend_accepts(self.backend, key):
                base[key] = value
        for name in axis_names:
            base.pop(name, None)  # axes shadow bound values, like Study
        missing = [
            p.name
            for p in cls.schema
            if isinstance(p, Param)
            and p.required
            and cls.backend_accepts(self.backend, p.name)
            and p.name not in base
            and p.name not in axis_names
        ]
        if missing:
            raise ValueError(
                f"scenario {cls.name!r} {role} backend is missing required "
                f"parameter(s): {', '.join(missing)}"
            )
        self.base = base

        #: axis-value key -> solved values dict (None = rejected point).
        self._memo: dict[tuple, dict[str, float] | None] = {}
        self.solves = 0
        self.points = 0

    # -- candidate plumbing ---------------------------------------------

    def key_for(self, candidate: Mapping[str, float]) -> tuple:
        return tuple(ax.value(candidate[ax.name]) for ax in self.axes)

    def params_for(self, candidate: Mapping[str, float]) -> dict[str, object]:
        params = dict(self.base)
        for ax in self.axes:
            params[ax.name] = ax.value(candidate[ax.name])
        return params

    @staticmethod
    def _split(raw: Mapping[str, object]) -> dict[str, float]:
        return {k: v for k, v in raw.items() if not str(k).startswith("_")}

    # -- solving ---------------------------------------------------------

    def _dispatch(
        self, keys: list[tuple], params_list: list[dict[str, object]]
    ) -> None:
        """Solve ``params_list`` (one batch call when possible) into the
        memo; rejected points memoize as None."""
        if self.backend.batch is not None and len(params_list) > 1:
            try:
                raws = self.backend.batch(params_list)
            except _REJECTIONS:
                pass  # one bad point poisons a batch; rescue per point
            else:
                self.solves += 1
                self.points += len(params_list)
                for key, raw in zip(keys, raws):
                    self._memo[key] = self._split(raw)
                return
        for key, params in zip(keys, params_list):
            self.solves += 1
            self.points += 1
            try:
                self._memo[key] = self._split(self.backend.func(params))
            except _REJECTIONS:
                self._memo[key] = None

    def values(
        self, candidates: Sequence[Mapping[str, float]]
    ) -> list[dict[str, float] | None]:
        """Solved values for each candidate (memoized; one batch solve
        for all uncached candidates)."""
        keys = [self.key_for(c) for c in candidates]
        fresh_keys: list[tuple] = []
        fresh_params: list[dict[str, object]] = []
        seen = set()
        for key, cand in zip(keys, candidates):
            if key not in self._memo and key not in seen:
                seen.add(key)
                fresh_keys.append(key)
                fresh_params.append(self.params_for(cand))
        if fresh_keys:
            self._dispatch(fresh_keys, fresh_params)
        return [self._memo[key] for key in keys]

    # -- views for the algorithms ----------------------------------------

    def scalar_values(
        self, axis: AxisSpec, xs: Sequence[float]
    ) -> list[dict[str, float] | None]:
        return self.values([{axis.name: x} for x in xs])

    def evaluated(self) -> dict[tuple, dict[str, float] | None]:
        """The full memo (axis-value key -> values), for grid extraction."""
        return dict(self._memo)
