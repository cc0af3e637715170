"""Benchmark: optimize() inverse queries vs exhaustive grid scans.

The repro.opt acceptance number: a 1-D budget query ("the largest W
whose response time stays under budget") must return the same answer
as scanning a dense parameter grid while solving <= 15% of the grid's
points.  Both sides run the same batch evaluator, so the point-count
ratio is a pure search-efficiency measure -- deterministic for fixed
queries, which makes it transfer across runners far better than raw
timings.

``speedup`` is grid-points over optimizer-points; the gated baselines
live in benchmarks/baselines/BENCH_opt.json.
"""

from repro import scenario

_BASE = {"P": 32, "St": 10.0, "So": 131.0, "C2": 1.0}
_GRID_STEP = 100
_GRID = [float(w) for w in range(1, 20001, _GRID_STEP)]  # 200 points
_POINT_BUDGET_FRACTION = 0.15
# bisect_boundary's xtol is 1e-4 of the span; the grid step itself is
# coarser than that, so the dominance margin is one grid step.
_X_TOL = float(_GRID_STEP)


def _budget_query(scenario_name, budget, benchmark):
    """Gate one budget query: same answer as the grid, <= 15% of points."""
    sc = scenario(scenario_name, **_BASE)

    rows = sc.study(W=_GRID).analytic()
    feasible = [r["W"] for r in rows if r["R"] <= budget]
    grid_points = len(rows)

    result = benchmark(
        lambda: sc.optimize(
            maximize="W",
            over={"W": (1.0, 20000.0)},
            subject_to=f"R <= {budget}",
        )
    )

    assert result.converged and result.feasible
    assert result.best_values["R"] <= budget
    assert result.best >= max(feasible) - _X_TOL, (
        f"{scenario_name}: optimizer W={result.best:.1f} loses to the "
        f"grid's feasible max {max(feasible):.1f}"
    )
    assert result.points <= _POINT_BUDGET_FRACTION * grid_points, (
        f"{scenario_name}: {result.points} points exceeds "
        f"{_POINT_BUDGET_FRACTION:.0%} of the {grid_points}-point grid"
    )
    benchmark.extra_info["grid_points"] = grid_points
    benchmark.extra_info["opt_points"] = result.points
    benchmark.extra_info["opt_solves"] = result.solves
    benchmark.extra_info["speedup"] = grid_points / result.points


def test_opt_budget_query_alltoall(benchmark):
    """All-to-all capacity query in <= 15% of a 201-point grid."""
    _budget_query("alltoall", 2000.0, benchmark)


def test_opt_budget_query_sharedmem(benchmark):
    """Shared-memory capacity query in <= 15% of a 201-point grid."""
    _budget_query("sharedmem", 3000.0, benchmark)


def test_opt_unimodal_argmax_workpile(benchmark):
    """Golden section finds the exact throughput-optimal server count
    at a fraction of the 31-point lattice scan."""
    sc = scenario("workpile", **_BASE, W=250.0)

    rows = sc.study(Ps=list(range(1, 32))).analytic()
    winner = rows.best(maximize="X")
    grid_points = len(rows)

    result = benchmark(
        lambda: sc.optimize(maximize="X", over={"Ps": (1, 31)})
    )

    assert result.converged
    assert result.argbest["Ps"] == winner.params["Ps"]
    assert result.best == winner.X
    assert result.points <= grid_points // 2, (
        f"golden section used {result.points} of {grid_points} lattice "
        "points -- no better than halving the scan"
    )
    benchmark.extra_info["grid_points"] = grid_points
    benchmark.extra_info["opt_points"] = result.points
    benchmark.extra_info["opt_solves"] = result.solves
    benchmark.extra_info["speedup"] = grid_points / result.points
