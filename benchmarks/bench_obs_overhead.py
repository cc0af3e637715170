"""Telemetry-overhead gates: observing a sweep must stay nearly free.

Every solver, kernel, and sweep hook added by ``repro.obs`` is a single
``is None`` check against the active bundle when no telemetry is
active, and the sweep runner evaluates its cache misses in one call
whether or not anyone is watching: progress is reported from inside
the one masked solve.  This script enforces both halves of that design
with two gates, each best-of-``--repeats`` on both sides with a few
retries to ride out scheduler noise:

* **metrics** -- the dense all-to-all batch sweep with a metrics
  registry attached may cost at most ``--max-overhead`` (default 2%)
  over the telemetry-off run;
* **live** -- the same sweep, and the 400-point two-class Schweitzer
  grid, with a progress reporter *and* an event log attached may cost
  at most ``--max-live-overhead`` (default 5%) over telemetry-off.

It also runs one fully-instrumented sweep (metrics + events + progress)
and writes its telemetry snapshot -- counters, iteration statistics,
routing split, the ``sweep.run`` timer -- as a ``METRICS_sweep.json``
CI artifact, so every build leaves a machine-readable record of solver
behaviour next to the ``BENCH_*.json`` perf artifacts.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --out METRICS_sweep.json
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs import ConsoleProgress, EventLog, MetricsRegistry
from repro.sweep import GridAxis, SweepSpec, run_sweep


def make_spec(points: int) -> SweepSpec:
    """A dense analytic batch sweep: the CI batch-gate workload shape."""
    return SweepSpec(
        name="obs-overhead",
        evaluator="alltoall-model",
        base={"P": 32, "St": 40.0, "So": 200.0, "C2": 0.0},
        axes=(
            GridAxis("W", tuple(2.0 + 10.0 * i for i in range(points))),
        ),
    )


def make_schweitzer_spec() -> SweepSpec:
    """The 400-point (20 Z0 x 20 N0) two-class Schweitzer grid of
    ``bench_serve.py``: ~740 iterations per point, spread widely, so
    rows freeze throughout the solve and progress arrives mid-solve."""
    pops = tuple(int(n) for n in np.linspace(4, 120, 20).round())
    thinks = tuple(float(z) for z in np.linspace(0.0, 8.0, 20))
    return SweepSpec(
        name="obs-overhead-schweitzer",
        evaluator="multiclass-mva",
        base={"N1": 20, "Z1": 1.0, "D0_0": 1.0, "D0_1": 0.95,
              "D1_0": 0.9, "D1_1": 1.0, "method": "schweitzer"},
        axes=(GridAxis("Z0", thinks), GridAxis("N0", pops)),
    )


def metrics_only() -> dict:
    return {"metrics": MetricsRegistry()}


def live() -> dict:
    """What ``lopc-repro sweep --progress --events F`` attaches (the
    console lines go to a buffer instead of the terminal)."""
    return {"progress": ConsoleProgress(stream=io.StringIO()),
            "events": EventLog()}


def measure_overhead(
    spec: SweepSpec, repeats: int, sinks: Callable[[], dict] = metrics_only
) -> tuple[float, float]:
    """(disabled_best, enabled_best) with interleaved runs.

    Alternating disabled/enabled runs inside one pass keeps both
    measurements exposed to the same machine state, so a frequency
    ramp or background task cannot penalise only one side.  ``sinks``
    builds fresh telemetry arguments for each enabled run.
    """
    disabled = float("inf")
    enabled = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_sweep(spec)
        disabled = min(disabled, time.perf_counter() - start)
        kwargs = sinks()
        start = time.perf_counter()
        run_sweep(spec, **kwargs)
        enabled = min(enabled, time.perf_counter() - start)
    return disabled, enabled


def gate(label: str, spec: SweepSpec, sinks: Callable[[], dict],
         limit: float, repeats: int, retries: int) -> bool:
    """Re-measure up to ``retries`` times; True once within ``limit``."""
    overhead = float("inf")
    for attempt in range(1, retries + 1):
        disabled, enabled = measure_overhead(spec, repeats, sinks)
        overhead = enabled / disabled - 1.0
        print(
            f"{label} attempt {attempt}: disabled {disabled * 1e3:.1f} ms, "
            f"enabled {enabled * 1e3:.1f} ms, "
            f"overhead {overhead:+.2%} (limit {limit:.0%})"
        )
        if overhead <= limit:
            print(f"{label} overhead gate ok")
            return True
    print(
        f"{label} overhead gate FAILED: {overhead:+.2%} exceeds "
        f"{limit:.0%} after {retries} attempts",
        file=sys.stderr,
    )
    return False


def metrics_artifact(spec: SweepSpec) -> dict:
    """Snapshot of one fully-instrumented sweep (all sinks attached)."""
    result = run_sweep(
        spec,
        metrics=True,
        events=EventLog(),
        progress=lambda done, total, info: None,
    )
    meta = result.metadata
    return {
        "spec": spec.name,
        "evaluator": spec.evaluator,
        "points": len(result),
        "routing": meta["routing"],
        "elapsed": meta.get("elapsed"),
        "metrics": meta["telemetry"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=400,
                        help="all-to-all sweep grid size (default 400)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N repeats per side (default 5)")
    parser.add_argument("--retries", type=int, default=3,
                        help="full re-measurements before failing (default 3)")
    parser.add_argument("--max-overhead", type=float, default=0.02,
                        help="allowed metrics-only slowdown (default 0.02)")
    parser.add_argument("--max-live-overhead", type=float, default=0.05,
                        help="allowed slowdown with progress and events "
                             "attached (default 0.05)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write METRICS_sweep.json artifact here")
    args = parser.parse_args(argv)

    spec = make_spec(args.points)
    schweitzer = make_schweitzer_spec()
    run_sweep(spec)  # warm imports and numpy caches off the clock
    run_sweep(schweitzer)

    if args.out is not None:
        payload = metrics_artifact(spec)
        args.out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        iters = payload["metrics"]["stats"].get(
            "solver.fixed_point_batch.iterations", {}
        )
        print(
            f"wrote {args.out} ({payload['points']} points, "
            f"mean {iters.get('mean', 0):.1f} solver iterations/point)"
        )

    gates = [
        ("metrics", spec, metrics_only, args.max_overhead),
        ("live alltoall", spec, live, args.max_live_overhead),
        ("live schweitzer", schweitzer, live, args.max_live_overhead),
    ]
    ok = True
    for label, gate_spec, sinks, limit in gates:
        ok &= gate(label, gate_spec, sinks, limit, args.repeats,
                   args.retries)
    if ok:
        print("telemetry overhead gates ok")
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
