"""The benchmark's workloads: one function each, same return shape.

Every workload measures for a fixed wall-clock budget and returns an
:class:`Outcome`: per-operation latencies (``inf`` for a failed one),
the work completed, set-up samples, peak memory, named figures for the
report, output-check errors, and -- in a traced run -- the recorded
spans plus the untraced/traced cost of the same work, whose ratio is
the tracing overhead.

Inputs come only from the seed.  Output checks run after the timed
region.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import checks, ledger
from perfbench.keystream import stream

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Closed-loop clients of ``serve-mixed`` (the host has 2 cores).
CLIENTS = 2

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 3

#: Deterministic serve-mixed counts are taken over this stream prefix.
PREFIX_ITEMS = 200


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)  # seconds per op
    elapsed: float = 0.0       # seconds the measured loop ran
    setup: list = field(default_factory=list)      # seconds per set-up
    rss_mb: float = 0.0        # peak RSS summed over the processes
    named: dict = field(default_factory=dict)      # report-only figures
    errors: list = field(default_factory=list)     # output-check failures
    spans: list = field(default_factory=list)      # traced run only
    extra: dict = field(default_factory=dict)      # traced-run facts
    work_rate: float = 0.0     # work per second, as the workload defines it
    untraced_cost: float = 0.0  # seconds per unit of work, traced run
    traced_cost: float = 0.0

    @property
    def failed_ops(self) -> int:
        return sum(1 for x in self.latencies if math.isinf(x))


def child_env() -> "dict[str, str]":
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def own_rss_mb() -> float:
    """Peak RSS of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_peak_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def import_setup(modules: str) -> "list[float]":
    """Wall time of fresh interpreters importing ``modules``."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {modules}"],
                       check=True, env=child_env(), cwd=ROOT, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
class _Server:
    """One ``lopc-repro serve`` process with a fresh sqlite cache."""

    def __init__(self, workdir: Path, tag: str,
                 spans_path: "Path | None" = None) -> None:
        from repro.serve import Client, ServeError

        args = ["--host", "127.0.0.1", "--port", "0", "--workers", "2",
                "--cache-dir", str(workdir / f"cache-{tag}.sqlite")]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_host.py"),
                   str(spans_path), *args]
        self.stderr = open(workdir / f"server-{tag}.log", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.stderr, text=True,
            env=child_env(), cwd=ROOT,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on " not in line:
                self.stderr.flush()
                log = Path(self.stderr.name).read_text()[-2000:]
                raise RuntimeError(f"server did not start: {line!r}\n{log}")
            self.url = line.split("listening on ", 1)[1].split()[0]
            client = Client(self.url, timeout=5.0)
            while True:
                try:
                    if client.health().get("ok"):
                        break
                except ServeError:
                    if time.perf_counter() - start > 120:
                        raise
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def peak_mb(self) -> float:
        return _proc_peak_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def _closed_loop(url: str, seed: int, seconds: float) -> "tuple[list, float]":
    """Drive the seeded stream with CLIENTS closed-loop threads.

    Returns ``(results, elapsed)``; each result is ``(item, latency,
    payload, error, done)`` with ``done`` the completion time since the
    start.  Requests in flight at the deadline complete and count.
    """
    from repro.serve import Client, ServeError

    items = stream(seed)
    lock = threading.Lock()
    results: list = []
    start = time.perf_counter()
    deadline = start + seconds
    ends = []

    def worker() -> None:
        client = Client(url, timeout=60.0)
        while True:
            with lock:
                if time.perf_counter() >= deadline:
                    ends.append(time.perf_counter())
                    return
                item = next(items)
            t0 = time.perf_counter()
            payload = error = None
            try:
                if item["op"] == "point":
                    payload = client.point(scenario=item["scenario"],
                                           **item["params"])
                else:
                    payload = client.optimize(item["scenario"],
                                              item["params"], **item["query"])
            except (ServeError, OSError, ValueError, KeyError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
            with lock:
                results.append((item, math.inf if error else done - t0,
                                payload, error, done - start))

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 150)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    results.sort(key=lambda r: r[0]["i"])
    return results, max(ends) - start


def serve_mixed(seed: int, seconds: float, trace: bool,
                workdir: Path) -> Outcome:
    from repro.serve import Client

    out = Outcome()
    if not trace:
        for n in range(SETUP_REPEATS - 1):
            server = _Server(workdir, f"boot{n}")
            server.stop()
            out.setup.append(server.boot_s)
    server = _Server(workdir, "run")
    out.setup.append(server.boot_s)
    try:
        phase = seconds / 2 if trace else seconds
        results, elapsed = _closed_loop(server.url, seed, phase)
        server_mb = server.peak_mb()
    finally:
        server.stop()
    out.rss_mb = server_mb + own_rss_mb()
    if trace:
        out.untraced_cost = elapsed / max(1, _completed(results))
        spans_path = workdir / "server-spans.json"
        server = _Server(workdir, "traced", spans_path=spans_path)
        try:
            results, elapsed = _closed_loop(server.url, seed, phase)
            counters = Client(server.url).metrics()["counters"]
        finally:
            server.stop()
        out.traced_cost = elapsed / max(1, _completed(results))
        out.spans = json.loads(spans_path.read_text())["spans"]
        out.extra = {"counters": counters,
                     **ledger.prefix_counts(results, out.spans, PREFIX_ITEMS)}
    out.latencies = [r[1] for r in results]
    out.work_rate = _block_rate(results)
    out.elapsed = elapsed
    point_ms = sorted(r[1] * 1e3 for r in results if r[0]["op"] == "point")
    opt_ms = sorted(r[1] * 1e3 for r in results if r[0]["op"] == "optimize")
    out.named = {"point_ms": point_ms, "optimize_ms": opt_ms,
                 "repeat_share": sum(1 for r in results if not r[0]["fresh"])
                 / max(1, len(point_ms))}
    out.errors = [f"request {r[0]['i']}: {r[3]}" for r in results if r[3]]
    out.errors += checks.served_answers(results)
    return out


def _completed(results: list) -> int:
    return sum(1 for r in results if r[3] is None)


#: The request rate is measured over blocks of this many completions.
RATE_BLOCK = 50


def _block_rate(results: list) -> float:
    """Median over consecutive blocks of completed requests per second."""
    done = sorted(r[4] for r in results if r[3] is None)
    rates = [RATE_BLOCK / (done[i + RATE_BLOCK] - done[i])
             for i in range(0, len(done) - RATE_BLOCK, RATE_BLOCK)]
    if not rates:
        raise RuntimeError(f"fewer than {RATE_BLOCK + 1} requests completed")
    return statistics.median(rates)


# ---------------------------------------------------------------------------
# Analytic sweeps
# ---------------------------------------------------------------------------
#: The near-balanced two-class Schweitzer grid of benchmarks/bench_serve.py:
#: ~740 damped iterations per point, so the solve is iteration-bound.
MC_BASE = {"N1": 20, "Z1": 1.0, "D0_0": 1.0, "D0_1": 0.95,
           "D1_0": 0.9, "D1_1": 1.0, "method": "schweitzer"}
MC_Z0 = tuple(float(z) for z in np.linspace(0.0, 8.0, 20))
MC_N0 = tuple(int(n) for n in np.linspace(4, 120, 20).round())

#: A 32 x 64 all-to-all W x P grid: few iterations per point, so per-call
#: and per-iteration overhead dominate.
AA_BASE = {"St": 40.0, "So": 200.0, "C2": 0.0}
AA_P = tuple(range(4, 68, 2))
AA_W = tuple(float(w) for w in np.geomspace(10.0, 20000.0, 64))

SWEEP_MODULES = "repro.sweep.runner, repro.sweep.evaluators"


def grids(seed: int) -> "dict[str, object]":
    """The two grids, their points in a seed-shuffled order."""
    from repro.sweep.spec import SweepSpec, ZipAxis

    rng = random.Random(seed)
    mc_rows = [(z, n) for z in MC_Z0 for n in MC_N0]
    aa_rows = [(p, w) for p in AA_P for w in AA_W]
    rng.shuffle(mc_rows)
    rng.shuffle(aa_rows)
    return {
        "mc": SweepSpec(name="perfbench/mc", evaluator="multiclass-mva",
                        base=MC_BASE, axes=(ZipAxis(("Z0", "N0"), mc_rows),)),
        "aa": SweepSpec(name="perfbench/aa", evaluator="alltoall-model",
                        base=AA_BASE, axes=(ZipAxis(("P", "W"), aa_rows),)),
    }


def _sweep_round(specs: dict, progress: bool) -> "dict[str, object]":
    import repro.sweep.runner as runner
    from repro.obs import ConsoleProgress

    results = {}
    for name, spec in specs.items():
        if progress:
            # The reporter `lopc-repro sweep --progress` attaches, writing
            # to a buffer instead of the terminal.
            reporter = ConsoleProgress(stream=io.StringIO())
            results[name] = runner.run_sweep(spec, jobs=1,
                                              progress=reporter)
        else:
            results[name] = runner.run_sweep(spec, jobs=1)
    return results


def _timed_rounds(round_fn, check_fn, seconds: float) -> "tuple[list, list]":
    """Repeat identical rounds until ``seconds`` of them have been timed.

    Returns each round's time and its work (points or events).
    ``check_fn`` checks a round's outputs outside the timed interval and
    keeps nothing of it, so memory does not grow with run length.
    """
    times, works = [], []
    while sum(times) < seconds:
        t0 = time.perf_counter()
        result = round_fn()
        times.append(time.perf_counter() - t0)
        works.append(check_fn(result))
    return times, works


def _measure(out: Outcome, round_fn, check_fn, seconds: float,
             trace: bool) -> "tuple[list, list]":
    """Timed rounds; a traced run alternates untraced and traced rounds.

    Alternating spreads both kinds over the same stretch of host time,
    so the overhead compares like with like on a host whose speed
    drifts.  The traced rounds' times and work are returned.
    """
    if not trace:
        times, works = _timed_rounds(round_fn, check_fn, seconds)
        out.rss_mb = own_rss_mb()
        return times, works
    from perfbench.spans import Recorder, install

    recorder = Recorder()

    def traced_round():
        install(recorder)
        try:
            return round_fn()
        finally:
            recorder.uninstall()

    plain: tuple[list, list] = ([], [])
    traced: tuple[list, list] = ([], [])
    while sum(plain[0]) + sum(traced[0]) < seconds:
        for fn, (times, works) in ((round_fn, plain), (traced_round, traced)):
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
            works.append(check_fn(result))
    out.untraced_cost = statistics.median(t / w for t, w in zip(*plain))
    out.traced_cost = statistics.median(t / w for t, w in zip(*traced))
    out.spans = recorder.spans
    return traced


def _rate(times: list, works: list) -> "tuple[float, float]":
    """(median over rounds of work per second, total timed seconds)."""
    return statistics.median(w / t for w, t in zip(works, times)), sum(times)


def analytic_sweep(kind: str, seed: int, seconds: float, trace: bool,
                   workdir: Path) -> Outcome:
    """``sweep-mc``, ``sweep-aa`` or ``sweep-progress`` (both grids)."""
    out = Outcome()
    if not trace:
        out.setup = import_setup(SWEEP_MODULES)
    specs = grids(seed)
    if kind != "sweep-progress":
        specs = {kind.split("-")[1]: specs[kind.split("-")[1]]}
    progress = kind == "sweep-progress"
    grid_elapsed: dict[str, list] = {name: [] for name in specs}

    def check_fn(result) -> float:
        for name, sweep in result.items():
            grid_elapsed[name].append(sweep.metadata["elapsed"])
        out.errors += checks.sweep_round(result)
        return float(sum(len(r) for r in result.values()))

    _sweep_round(specs, progress)  # untimed: lazy imports and first calls
    times, works = _measure(out, lambda: _sweep_round(specs, progress),
                            check_fn, seconds, trace)
    out.latencies = times
    out.work_rate, out.elapsed = _rate(times, works)
    out.named = {"grid_points": {n: len(s) for n, s in specs.items()},
                 "grid_elapsed_s": grid_elapsed}
    return out


# ---------------------------------------------------------------------------
# sim-sweep
# ---------------------------------------------------------------------------
SIM_BASE = {"St": 40.0, "So": 200.0}
SIM_CYCLES = 80

#: Machine sizes of the seeded points, one point per size and simulator.
#: Event counts scale with P, so fixing the sizes keeps every seed's
#: round the same amount of work; W, C2, the split and the simulator
#: seed are drawn from the workload seed.
SIM_SIZES = (4, 8, 12, 16, 24, 32)

#: Fixed points run in every round; their statistics are recorded in
#: reference.json, so any seed also checks a seed-independent answer.
SIM_ANCHORS = {
    "alltoall-sim": {"P": 16, "C2": 0.5, "W": 500.0, "seed": 7},
    "workpile-sim": {"P": 16, "Ps": 4, "C2": 0.5, "W": 500.0, "seed": 7},
}

SIM_MODULES = "repro.sweep.runner, repro.sweep.evaluators, repro.sim"


def sim_specs(seed: int) -> "dict[str, object]":
    from repro.sweep.spec import SweepSpec, ZipAxis

    rng = random.Random(seed)
    rows: dict[str, list] = {"alltoall-sim": [], "workpile-sim": []}
    for evaluator, points in rows.items():
        for procs in SIM_SIZES:
            row = {"P": procs, "C2": rng.choice((0.0, 0.5, 1.0, 2.0)),
                   "W": round(rng.uniform(50.0, 2000.0), 4),
                   "seed": rng.randrange(2 ** 31)}
            if evaluator == "workpile-sim":
                row["Ps"] = rng.randint(1, procs // 2)
            points.append(row)
    specs = {}
    for evaluator, points in rows.items():
        points.append(SIM_ANCHORS[evaluator])
        names = tuple(points[0])
        length = "cycles" if evaluator == "alltoall-sim" else "chunks"
        specs[evaluator] = SweepSpec(
            name=f"perfbench/{evaluator}", evaluator=evaluator,
            base={**SIM_BASE, length: SIM_CYCLES},
            axes=(ZipAxis(names, [tuple(p[k] for k in names)
                                  for p in points]),),
        )
    return specs


def sim_sweep(seed: int, seconds: float, trace: bool,
              workdir: Path) -> Outcome:
    import repro.sweep.runner as runner

    out = Outcome()
    if not trace:
        out.setup = import_setup(SIM_MODULES)
    specs = sim_specs(seed)
    checker = checks.SimChecker()

    def round_fn():
        return {name: runner.run_sweep(spec, jobs=1)
                for name, spec in specs.items()}

    def check_fn(result) -> float:
        out.errors += checker(result)
        return float(sum(r.metadata["events_processed"]
                         for r in result.values()))

    check_fn(round_fn())  # untimed: lazy imports, first calls, first check
    times, works = _measure(out, round_fn, check_fn, seconds, trace)
    out.latencies = times
    out.work_rate, out.elapsed = _rate(times, works)
    out.named = {"events_per_round": works[0]}
    return out


#: The tail percentile each workload reports, fixed so that runs and
#: commits compare like with like: the highest percentile that keeps at
#: least ten samples beyond it at the sample count a 15-second run
#: reaches on a 2-core host (~2400 requests, ~150 all-to-all rounds,
#: ~60 multiclass rounds, ~35 simulator rounds, ~10 progress rounds).
TAIL_PCT = {"serve-mixed": 99.0, "sweep-mc": 50.0, "sweep-aa": 90.0,
            "sweep-progress": 50.0, "sim-sweep": 50.0}

WORKLOADS = {
    "serve-mixed": serve_mixed,
    "sweep-mc": lambda *a: analytic_sweep("sweep-mc", *a),
    "sweep-aa": lambda *a: analytic_sweep("sweep-aa", *a),
    "sweep-progress": lambda *a: analytic_sweep("sweep-progress", *a),
    "sim-sweep": sim_sweep,
}
