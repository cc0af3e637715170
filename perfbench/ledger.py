"""Per-layer metrics and the layer table, computed from recorded spans.

Self time is a span's duration minus the union of its children's
intervals; children are the spans opened beneath it on its own thread
plus the spans that ``link`` to it from another thread (the service's
batch solve and cache write).  Every ratio printed names its base.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.measure import self_time

KERNELS = ("alltoall", "workpile", "multiclass")

#: The per-layer metrics and their units, in BENCHMARK.json order.
METRICS = {
    "serve.http.self_ms": "ms",
    "serve.service.self_ms": "ms",
    "serve.service.batch_wait_ms": "ms",
    "serve.service.batch_size_mean": "requests",
    "serve.service.coalesced_frac": "frac",
    "sweep.cache.get_ms": "ms",
    "sweep.cache.put_ms": "ms",
    "sweep.cache.hit_frac": "frac",
    "sweep.runner.self_ms": "ms",
    "sweep.evaluators.self_ms": "ms",
    "sweep.runner.calls_per_sweep": "calls",
    **{f"kernel.{k}.ms_per_call": "ms" for k in KERNELS},
    **{f"kernel.{k}.points_per_call": "points" for k in KERNELS},
    "core.solver.iterations_mean.mc": "iterations",
    "core.solver.iterations_mean.aa": "iterations",
    "core.solver.us_per_iteration": "us",
    "opt.points_per_query": "points",
    "opt.solves_per_query": "solves",
    "opt.query_ms": "ms",
    "sim.events": "events",
    "sim.run_ms_per_point": "ms",
    "sim.us_per_event": "us",
    "tracing.overhead_frac": "frac",
}


class Spans:
    """Indexes one run's spans by name and by parent (or link)."""

    def __init__(self, spans: list) -> None:
        self.spans = spans
        self.by_name: dict[str, list] = defaultdict(list)
        self.children: dict[int, list] = defaultdict(list)
        for span in spans:
            self.by_name[span["name"]].append(span)
            if span.get("parent") is not None:
                self.children[span["parent"]].append(span)
            for linked in span.get("links", ()):
                if linked != span.get("parent"):
                    self.children[linked].append(span)

    def self_s(self, span: dict) -> float:
        kids = [(c["start"], c["end"]) for c in self.children[span["id"]]]
        return self_time(span["start"], span["end"], kids)

    def mean_self_ms(self, spans: list) -> float:
        return _mean([self.self_s(s) for s in spans]) * 1e3

    def descendants(self, span: dict, name: str) -> list:
        found, todo = [], list(self.children[span["id"]])
        while todo:
            child = todo.pop()
            if child["name"] == name:
                found.append(child)
            todo.extend(c for c in self.children[child["id"]]
                        if c.get("parent") == child["id"])
        return found


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _loop_iterations(index: Spans, kernel: dict) -> int:
    """Passes of the masked fixed-point loop one kernel call made."""
    if kernel.get("iterations"):
        return max(kernel["iterations"])
    solves = index.descendants(kernel, "core.solver")
    return sum(max(s["iterations"]) for s in solves if s.get("iterations"))


def per_layer(spans: list, extra: dict, named: dict,
              overhead: float) -> "dict[str, float]":
    """Every per-layer metric of one traced run (0 where a layer idles)."""
    idx = Spans(spans)
    m: dict[str, float] = dict.fromkeys(METRICS, 0.0)

    service = idx.by_name["serve.service"]
    http = [s for s in idx.by_name["serve.http"]
            if any(c["name"] == "serve.service" for c in idx.children[s["id"]])]
    m["serve.http.self_ms"] = idx.mean_self_ms(http)
    m["serve.service.self_ms"] = idx.mean_self_ms(service)
    evaluators = idx.by_name["sweep.evaluators"]
    waits = [w for s in evaluators for w in s.get("waits", ())]
    m["serve.service.batch_wait_ms"] = _mean(waits) * 1e3
    counters = extra.get("counters", {})
    if counters.get("serve.batch.solves"):
        m["serve.service.batch_size_mean"] = (
            counters["serve.batch.requests"] / counters["serve.batch.solves"])
    if counters.get("serve.requests.point"):
        m["serve.service.coalesced_frac"] = (
            counters.get("serve.coalesced", 0)
            / counters["serve.requests.point"])

    gets, puts = idx.by_name["sweep.cache.get"], idx.by_name["sweep.cache.put"]
    m["sweep.cache.get_ms"] = _mean([_dur(s) for s in gets]) * 1e3
    m["sweep.cache.put_ms"] = _mean([_dur(s) for s in puts]) * 1e3
    if gets:
        m["sweep.cache.hit_frac"] = sum(s.get("hit", False) for s in gets) / len(gets)

    runs = idx.by_name["sweep.runner"]
    m["sweep.runner.self_ms"] = idx.mean_self_ms(runs)
    m["sweep.evaluators.self_ms"] = idx.mean_self_ms(evaluators)
    if runs:
        m["sweep.runner.calls_per_sweep"] = sum(
            1 for s in evaluators if s.get("parent") in {r["id"] for r in runs}
        ) / len(runs)

    loop_time = loop_passes = 0.0
    for kernel in KERNELS:
        calls = idx.by_name[f"kernel.{kernel}"]
        m[f"kernel.{kernel}.ms_per_call"] = _mean([_dur(s) for s in calls]) * 1e3
        m[f"kernel.{kernel}.points_per_call"] = _mean([s["points"] for s in calls])
        for call in calls:
            passes = _loop_iterations(idx, call)
            if passes:
                loop_time += _dur(call)
                loop_passes += passes
    if loop_passes:
        m["core.solver.us_per_iteration"] = loop_time / loop_passes * 1e6

    iterations = extra.get("iterations")
    if iterations is not None:  # serve-mixed: exact over the stream prefix
        m["core.solver.iterations_mean.mc"] = _mean(iterations.get("multiclass", []))
        m["core.solver.iterations_mean.aa"] = _mean(iterations.get("alltoall", []))
        m["opt.points_per_query"] = _mean(extra["opt_points"])
        m["opt.solves_per_query"] = _mean(extra["opt_solves"])
    else:
        m["core.solver.iterations_mean.mc"] = _mean(
            [n for s in idx.by_name["kernel.multiclass"]
             for n in s.get("iterations", ())])
        m["core.solver.iterations_mean.aa"] = _mean(
            [n for k in idx.by_name["kernel.alltoall"]
             for s in idx.descendants(k, "core.solver")
             for n in s.get("iterations", ())])
    m["opt.query_ms"] = _mean([_dur(s) for s in idx.by_name["opt"]]) * 1e3

    sims = idx.by_name["sim"]
    if sims:
        m["sim.events"] = float(named["events_per_round"])
        m["sim.run_ms_per_point"] = _mean([_dur(s) for s in sims]) * 1e3
        m["sim.us_per_event"] = (sum(_dur(s) for s in sims)
                                 / sum(s.get("events", 0) for s in sims) * 1e6)
    m["tracing.overhead_frac"] = overhead
    return m


def table(spans: list, traced_wall: float) -> "list[str]":
    """The per-layer table: counts, total and self time, shares."""
    idx = Spans(spans)
    lines = [f"{'layer span':<18} {'count':>7} {'total ms':>10} "
             f"{'self ms':>10} {'self/span ms':>12} {'self share':>10}",
             f"  (self share base: the traced phase's wall time, "
             f"{traced_wall * 1e3:.1f} ms; spans on concurrent threads "
             "can sum past 1)"]
    for name in sorted(idx.by_name):
        group = idx.by_name[name]
        total = sum(_dur(s) for s in group)
        own = sum(idx.self_s(s) for s in group)
        lines.append(f"{name:<18} {len(group):>7} {total * 1e3:>10.1f} "
                     f"{own * 1e3:>10.1f} {own / len(group) * 1e3:>12.4f} "
                     f"{own / traced_wall:>10.3f}")
    gets = idx.by_name["sweep.cache.get"]
    if gets:
        hits = sum(s.get("hit", False) for s in gets)
        lines.append(f"cache hit share: {hits / len(gets):.3f} "
                     f"(base: {len(gets)} cache gets)")
    batches = [len(s["keys"]) for s in idx.by_name["sweep.evaluators"]
               if "keys" in s]
    if batches:
        sizes = defaultdict(int)
        for size in batches:
            sizes[min(size, 3)] += 1
        shares = ", ".join(f"{'3+' if k == 3 else k}: {v / len(batches):.3f}"
                           for k, v in sorted(sizes.items()))
        lines.append(f"batch-size share: {shares} "
                     f"(base: {len(batches)} batch solves)")
    return lines


def prefix_counts(results: list, spans: list, prefix: int) -> "dict[str, object]":
    """Exact ``serve-mixed`` counts over the first ``prefix`` stream items.

    Iterations are a property of the point (batched solves freeze each
    point at its own convergence), so they repeat exactly for a seed
    whatever the batching, timing or run length.  The server's batch
    spans carry the point keys; their kernel or solver spans carry the
    iteration counts in the same order.
    """
    idx = Spans(spans)
    iterations: dict[str, int] = {}
    for span in idx.by_name["sweep.evaluators"]:
        if "keys" not in span:
            continue
        for inner in (idx.descendants(span, "kernel.multiclass")
                      + idx.descendants(span, "core.solver")):
            if len(inner.get("iterations", ())) == len(span["keys"]):
                iterations.update(zip(span["keys"], inner["iterations"]))
    per_scenario: dict[str, list[int]] = {}
    opt_points, opt_solves = [], []
    for item, _, payload, *_ in results:
        if item["i"] >= prefix or payload is None:
            continue
        if item["op"] == "optimize":
            opt_points.append(payload.points)
            opt_solves.append(payload.solves)
        elif item["fresh"] and payload.meta["key"] in iterations:
            per_scenario.setdefault(item["scenario"], []).append(
                iterations[payload.meta["key"]])
    return {"iterations": per_scenario, "opt_points": opt_points,
            "opt_solves": opt_solves}
