"""OptResult: accessors, summary, and the JSON round trip."""

import math

import pytest

from repro.api.solution import Solution
from repro.opt.result import OptResult


def _result(**overrides):
    base = dict(
        scenario="alltoall",
        backend="analytic",
        evaluator="alltoall-model",
        mode="maximize",
        objective="W",
        method="bisect",
        over={"W": (1.0, 20000.0)},
        constraints=("R <= 2000",),
        best_params={"P": 32, "St": 10.0, "So": 131.0, "C2": 1.0,
                     "W": 1313.14},
        best_values={"R": 1999.9, "X": 0.016},
        best=1313.14,
        trajectory=(380.7, 1249.5, 1313.14),
        solves=7,
        points=26,
        steps=6,
        converged=True,
        meta={"axes": {"W": {"integer": False, "log": False}}},
    )
    base.update(overrides)
    return OptResult(**base)


class TestAccessors:
    def test_argbest_restricts_to_searched_axes(self):
        assert _result().argbest == {"W": 1313.14}

    def test_feasible(self):
        assert _result().feasible
        assert not _result(best_params={}, best_values={},
                           best=-math.inf).feasible

    def test_solution_bridge(self):
        sol = _result().solution()
        assert isinstance(sol, Solution)
        assert sol.scenario == "alltoall"
        assert sol.R == 1999.9
        assert sol.meta["opt"]["method"] == "bisect"

    def test_summary_mentions_cost_and_winner(self):
        text = _result().summary()
        assert "W=1313.14" in text
        assert "7 solves" in text and "26 points" in text
        assert "converged" in text

    def test_summary_handles_infeasible(self):
        text = _result(best_params={}, best_values={}, best=-math.inf,
                       converged=False).summary()
        assert "no feasible point" in text
        assert "NOT converged" in text


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        r = _result()
        assert OptResult.from_dict(r.to_dict()) == r

    def test_json_round_trip_is_identity(self):
        r = _result()
        back = OptResult.from_json(r.to_json())
        assert back == r
        assert back.over == {"W": (1.0, 20000.0)}
        assert back.trajectory == r.trajectory

    def test_json_is_sorted_and_indented(self):
        lines = _result().to_json().splitlines()
        assert lines[0] == "{"
        keys = [ln.split('"')[1] for ln in lines
                if ln.startswith('  "')]
        assert keys == sorted(keys)

    def test_meta_not_compared(self):
        assert _result(meta={"a": 1}) == _result(meta={"b": 2})
