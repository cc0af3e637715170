"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs
with span wrappers installed (alternating untraced and traced rounds)
and prints the per-layer metrics, the layer table and the tracing
overhead.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, the environment
record and (traced) spans are also written under ``.perfbench-out/``.
The exit code is non-zero when an output check fails or the workload
cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

#: Per workload: the unit of its work, the issue-level name of its
#: throughput, and what the throughput median is taken over.
WORK = {
    "serve-mixed": ("requests", "query_rate_qps", "blocks of 50 completions"),
    "sweep-mc": ("points", "sweep_mc_points_per_s", "rounds"),
    "sweep-aa": ("points", "sweep_aa_points_per_s", "rounds"),
    "sweep-progress": ("points", "sweep_progress_points_per_s", "rounds"),
    "sim-sweep": ("events", "sim_events_per_s", "rounds"),
}


def end_to_end(name: str, out) -> "tuple[dict, list[str]]":
    from perfbench.measure import (MIN_BEYOND, percentile, samples_beyond,
                                   tail_percentile)
    from perfbench.workloads import TAIL_PCT

    n = len(out.latencies)
    tail = TAIL_PCT[name]
    unit, issue_name, base = WORK[name]
    metrics = {
        "setup_s": (statistics.median(out.setup), "s"),
        "op_p50_ms": (percentile(out.latencies, 50) * 1e3, "ms"),
        "op_tail_ms": (percentile(out.latencies, tail) * 1e3, "ms"),
        "throughput_per_s": (out.work_rate, "1/s"),
        "rss_peak_mb": (out.rss_mb, "MB"),
    }
    report = [
        f"setup_s {metrics['setup_s'][0]:.4f} s "
        f"(median of {len(out.setup)} set-ups)",
        f"op_p50_ms {metrics['op_p50_ms'][0]:.4f} ms (n={n})",
        f"op_tail_ms {metrics['op_tail_ms'][0]:.4f} ms (p{tail:g}, n={n}, "
        f"{samples_beyond(n, tail)} beyond; the rule gives "
        f"p{tail_percentile(n):g} at this n)",
        f"throughput_per_s {metrics['throughput_per_s'][0]:.4f} "
        f"{unit}/s = {issue_name} "
        f"(median over {base}; {out.elapsed:.3f} s measured)",
        f"rss_peak_mb {out.rss_mb:.2f} MB (peak RSS summed over processes)",
        f"fail_frac {out.failed_ops / max(1, n):.6f} "
        f"({out.failed_ops} failed of {n} attempted)",
    ]
    if samples_beyond(n, tail) < MIN_BEYOND:
        report.append(f"WARNING: fewer than {MIN_BEYOND} samples beyond "
                      f"p{tail:g}; the tail figure is not resolved")
    for grid, elapsed in out.named.get("grid_elapsed_s", {}).items():
        points = out.named["grid_points"][grid]
        median = statistics.median(elapsed)
        report.append(f"grid {grid}: {points} points, median run_sweep "
                      f"{median * 1e3:.2f} ms = {points / median:.1f} "
                      f"points/s (n={len(elapsed)})")
    if name == "serve-mixed":
        pts, opt = out.named["point_ms"], out.named["optimize_ms"]
        pt_tail = tail_percentile(len(pts))
        report += [
            f"query_p50_ms {metrics['op_p50_ms'][0]:.4f} ms, "
            f"query_p{tail:g}_ms {metrics['op_tail_ms'][0]:.4f} ms "
            f"(all requests, n={n})",
            f"point_p50_ms {percentile(pts, 50):.4f} ms, point_p{pt_tail:g}_ms "
            f"{percentile(pts, pt_tail):.4f} ms (n={len(pts)})",
        ]
        if opt:
            report.append(f"opt_query_p50_ms {percentile(opt, 50):.4f} ms "
                          f"(n={len(opt)})")
        report.append(f"repeat share of point queries "
                      f"{out.named['repeat_share']:.3f} (base: {len(pts)})")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, report


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import ledger, measure, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        out = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = measure.environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        overhead = out.traced_cost / out.untraced_cost - 1.0
        metrics = {
            name: {"value": value, "unit": ledger.METRICS[name]}
            for name, value in ledger.per_layer(
                out.spans, out.extra, out.named, overhead).items()
        }
        report = ledger.table(out.spans, out.elapsed)
        report.append(f"tracing overhead {overhead:+.4f} (traced "
                      f"{out.traced_cost * 1e6:.2f} us vs untraced "
                      f"{out.untraced_cost * 1e6:.2f} us per "
                      f"{WORK[args.workload][0][:-1]})")
        report += [f"{k} {v['value']:.6g} {v['unit']}"
                   for k, v in metrics.items()]
        (OUT / f"{tag}-spans.json").write_text(json.dumps(out.spans))
    else:
        metrics, report = end_to_end(args.workload, out)
    for line in report:
        print(line)
    for error in out.errors[:20]:
        print(f"CHECK FAILED: {error}")
    if len(out.errors) > 20:
        print(f"... and {len(out.errors) - 20} more check failures")

    attempted = max(1, len(out.latencies))
    failed = min(attempted, out.failed_ops + len(out.errors))
    correct = not out.errors and out.failed_ops == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(
        {**result, "environment": env, "report": report,
         "errors": out.errors}, indent=1, default=float))
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        print("a metric is not finite; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
