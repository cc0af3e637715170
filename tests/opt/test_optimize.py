"""End-to-end inverse queries: optimize() vs brute-force grid truth.

The central claim of the ``repro.opt`` layer is *grid equivalence at a
fraction of the cost*: whatever search runs (boundary pick, bisection,
golden-section, pattern descent), the answer must match an exhaustive
scan of the same box -- checked here on real scenarios -- while solving
measurably fewer points.
"""

import math

import pytest

from repro import UnsupportedBackend, scenario
from repro.api import get_scenario_class
from repro.sweep import GridAxis, RandomAxis, ZipAxis

ALLTOALL = {"P": 32, "St": 10.0, "So": 131.0, "C2": 1.0}
WORKPILE = {"P": 32, "St": 10.0, "So": 131.0, "C2": 1.0, "W": 250.0}
NONBLOCKING = {"P": 32, "St": 10.0, "So": 131.0, "C2": 1.0, "W": 50.0}


def grid_best(sc, column, name, axis_values, *, mode):
    """Brute-force argmin/argmax via a facade study over a dense grid."""
    study = sc.study(**{name: axis_values})
    kwargs = {mode: column}
    return study.analytic().best(**kwargs), len(axis_values)


class TestMonotoneBoundary:
    """R is declared increasing in W: no search needed at all."""

    def test_minimize_matches_grid(self):
        sc = scenario("alltoall", **ALLTOALL)
        result = sc.optimize(minimize="R", over={"W": (1.0, 20000.0)})
        winner, grid_points = grid_best(
            sc, "R", "W", [float(w) for w in range(1, 20001, 500)],
            mode="minimize",
        )
        assert result.converged and result.method == "boundary"
        assert result.argbest["W"] == 1.0
        assert result.best == pytest.approx(winner.R, rel=1e-12)
        assert result.points == 2
        assert result.points < grid_points

    def test_maximize_picks_other_end(self):
        sc = scenario("alltoall", **ALLTOALL)
        result = sc.optimize(maximize="R", over={"W": (1.0, 20000.0)})
        assert result.argbest["W"] == 20000.0

    def test_integer_monotone_axis(self):
        sc = scenario("nonblocking", **NONBLOCKING)
        result = sc.optimize(minimize="R", over={"k": (1, 16)})
        winner, _ = grid_best(
            sc, "R", "k", list(range(1, 17)), mode="minimize"
        )
        assert result.method == "boundary"
        # R(k) plateaus after the pipeline window saturates, so the
        # lattice argmin is float noise; the hinted boundary pick must
        # still match the exhaustive scan's best *value*.
        assert result.argbest["k"] == 16
        assert result.best == pytest.approx(winner.R, rel=1e-12)


class TestBisectInverse:
    """Capacity query: the largest W whose response stays under budget."""

    def test_answer_dominates_grid_and_honours_budget(self):
        sc = scenario("alltoall", **ALLTOALL)
        result = sc.optimize(
            maximize="W", over={"W": (1.0, 20000.0)},
            subject_to="R <= 2000",
        )
        assert result.converged and result.method == "bisect"
        assert result.best_values["R"] <= 2000.0
        # Dense-grid truth: nothing feasible beats the bisection answer
        # by more than the x-tolerance.
        sweep = sc.study(W=[float(w) for w in range(1, 20001, 100)])
        rows = sweep.analytic()
        feas = [r["W"] for r in rows if r["R"] <= 2000.0]
        assert result.best >= max(feas) - 20000.0 * 1e-3
        assert result.points < len(rows)

    def test_minimize_with_floor_constraint(self):
        sc = scenario("alltoall", **ALLTOALL)
        result = sc.optimize(
            minimize="W", over={"W": (1.0, 20000.0)},
            subject_to="R >= 2000",
        )
        assert result.converged
        assert result.best_values["R"] >= 2000.0

    def test_impossible_budget_is_honest(self):
        sc = scenario("alltoall", **ALLTOALL)
        result = sc.optimize(
            maximize="W", over={"W": (1.0, 20000.0)},
            subject_to="R <= 0.001",
        )
        assert not result.feasible and not result.converged

    def test_param_objective_requires_constraint(self):
        sc = scenario("alltoall", **ALLTOALL)
        with pytest.raises(ValueError, match="subject_to"):
            sc.optimize(maximize="W", over={"W": (1.0, 20000.0)})


class TestGoldenUnimodal:
    """Workpile throughput over the server count is declared unimodal."""

    def test_exact_integer_argmax_vs_full_scan(self):
        sc = scenario("workpile", **WORKPILE)
        result = sc.optimize(maximize="X", over={"Ps": (1, 31)})
        winner, grid_points = grid_best(
            sc, "X", "Ps", list(range(1, 32)), mode="maximize"
        )
        assert result.converged and result.method == "golden"
        assert result.argbest["Ps"] == winner.params["Ps"]
        assert result.best == pytest.approx(winner.X, rel=1e-12)
        assert result.points < grid_points

    def test_integer_rounding_of_box_and_answer(self):
        sc = scenario("workpile", **WORKPILE)
        result = sc.optimize(maximize="X", over={"Ps": (1.4, 30.7)})
        assert result.over["Ps"] == (2.0, 30.0)
        assert isinstance(result.best_params["Ps"], int)

    def test_hinted_monotone_r_boundary(self):
        sc = scenario("workpile", **WORKPILE)
        result = sc.optimize(minimize="R", over={"Ps": (1, 31)})
        # R declared decreasing in Ps: more servers, less queueing.
        assert result.method == "boundary"
        assert result.argbest["Ps"] == 31


class TestDescentMultiAxis:
    def test_two_axis_corner_found_exactly(self):
        sc = scenario("workpile", P=32, St=10.0, So=131.0, C2=1.0)
        result = sc.optimize(
            minimize="R", over={"W": (0.0, 2000.0), "Ps": (1, 31)}
        )
        # R increases in W and decreases in Ps, so the argmin is the
        # (W=0, Ps=31) corner -- which the opening factorial presample
        # contains, so descent must land exactly there.
        assert result.method == "descent"
        assert result.converged
        assert result.argbest == {"W": 0.0, "Ps": 31}
        corner = scenario(
            "workpile", P=32, St=10.0, So=131.0, C2=1.0, W=0.0, Ps=31
        ).analytic()
        assert result.best == pytest.approx(corner.R, rel=1e-12)


class TestKnee:
    def test_alltoall_w_knee_is_interior(self):
        sc = scenario("alltoall", **ALLTOALL)
        result = sc.optimize(knee="R", over={"W": (1.0, 20000.0)})
        assert result.converged and result.method == "knee"
        knee_w = result.argbest["W"]
        # The knee marks the contention-to-compute transition; it must
        # sit well inside the box, on the scale of the contention terms.
        assert 10.0 < knee_w < 10000.0

    def test_knee_rejects_constraints(self):
        sc = scenario("alltoall", **ALLTOALL)
        with pytest.raises(ValueError, match="constraint"):
            sc.optimize(knee="R", over={"W": (1.0, 200.0)},
                        subject_to="X >= 0")


class TestErrorsAndSchema:
    def test_two_modes_rejected(self):
        sc = scenario("alltoall", **ALLTOALL)
        with pytest.raises(ValueError, match="exactly one"):
            sc.optimize(minimize="R", maximize="X",
                        over={"W": (1.0, 10.0)})

    def test_over_required(self):
        with pytest.raises(ValueError, match="over="):
            scenario("alltoall", **ALLTOALL).optimize(minimize="R",
                                                      over={})

    def test_unknown_column_lists_available(self):
        sc = scenario("alltoall", **ALLTOALL)
        with pytest.raises(KeyError, match="available"):
            sc.optimize(minimize="nope", over={"W": (1.0, 10.0)})

    def test_box_outside_declared_range_rejected(self):
        sc = scenario("alltoall", **ALLTOALL)
        with pytest.raises(ValueError, match="declared range"):
            sc.optimize(minimize="R", over={"W": (1.0, 10**9)})

    def test_unsupported_backend_names_alternatives(self):
        sc = scenario("alltoall", **ALLTOALL)
        with pytest.raises(UnsupportedBackend) as err:
            sc.optimize(minimize="R", over={"W": (1.0, 10.0)},
                        backend="quantum")
        assert "alltoall" in str(err.value)
        assert "analytic" in str(err.value)
        assert err.value.role == "quantum"

    def test_optimizable_lists_declared_ranges(self):
        menu = get_scenario_class("alltoall").optimizable()
        assert menu["W"] == (0.0, 20000.0)
        assert "P" in menu
        # nonblocking's window size k declares no range -> not offered.
        assert "k" not in get_scenario_class("nonblocking").optimizable()


class TestTelemetry:
    def test_metrics_snapshot_lands_in_meta(self):
        sc = scenario("workpile", **WORKPILE)
        result = sc.optimize(maximize="X", over={"Ps": (1, 31)},
                             metrics=True)
        counters = result.meta["telemetry"]["counters"]
        assert counters["opt.queries"] == 1
        assert counters["opt.solves"] == result.solves
        assert counters["opt.points"] == result.points
        stats = result.meta["telemetry"]["stats"]
        assert stats["opt.solves_per_query"]["mean"] == result.solves


class TestStudyOptimize:
    def test_axes_become_search_box(self):
        sc = scenario("workpile", **WORKPILE)
        study = sc.study(Ps=range(1, 32))
        result = study.optimize(maximize="X")
        direct = sc.optimize(maximize="X", over={"Ps": (1, 31)})
        assert result.argbest == direct.argbest
        assert result.best == pytest.approx(direct.best, rel=1e-12)

    def test_random_axis_passes_geometry(self):
        sc = scenario("alltoall", **ALLTOALL)
        study = sc.study(
            W=RandomAxis("W", low=1.0, high=20000.0, count=8, log=True)
        )
        result = study.optimize(minimize="R")
        assert result.argbest["W"] == 1.0
        assert result.meta["axes"]["W"]["log"] is True

    def test_zip_axis_rejected(self):
        sc = scenario("alltoall", **ALLTOALL)
        study = sc.study(
            rows=ZipAxis(names=("W",), rows=[(1.0,), (2.0,)])
        )
        with pytest.raises(ValueError, match="correlated|Zip"):
            study.optimize(minimize="R")

    def test_grid_axis_uses_min_max(self):
        sc = scenario("alltoall", **ALLTOALL)
        study = sc.study(W=GridAxis("W", (500.0, 100.0, 4000.0)))
        result = study.optimize(minimize="R")
        assert result.over["W"] == (100.0, 4000.0)
