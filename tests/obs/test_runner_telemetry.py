"""run_sweep telemetry: metrics folding, progress, events, routing."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import PROGRESS_UPDATES, EventLog, MetricsRegistry
from repro.sweep import GridAxis, SweepSpec, run_sweep
from repro.sweep import executors


def _spec(n=5, **base_extra):
    base = {"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0}
    base.update(base_extra)
    return SweepSpec(
        name="tel",
        evaluator="alltoall-model",
        base=base,
        axes=(GridAxis("W", tuple(float(w) for w in range(10, 10 * n + 1, 10))),),
    )


#: Two-class Schweitzer networks whose iteration counts spread widely
#: (~220 to ~940 per point), so rows freeze throughout one masked solve.
_MC_BASE = {"N1": 20, "Z1": 1.0, "D0_0": 1.0, "D0_1": 0.95,
            "D1_0": 0.9, "D1_1": 1.0}


def _mc_spec(z0s=(0.0, 2.0, 4.0, 8.0), n0s=(4, 10, 20, 40, 80, 120),
             methods=("schweitzer",)):
    return SweepSpec(
        name="tel-mc",
        evaluator="multiclass-mva",
        base=_MC_BASE,
        axes=(GridAxis("method", methods), GridAxis("Z0", z0s),
              GridAxis("N0", n0s)),
    )


def _record(updates):
    return lambda done, total, info: updates.append((done, total, info))


class TestMetrics:
    def test_metrics_true_snapshot_in_metadata(self):
        result = run_sweep(_spec(), metrics=True)
        tel = result.metadata["telemetry"]
        assert tel["counters"]["sweep.runs"] == 1
        assert tel["counters"]["sweep.points"] == 5
        assert tel["counters"]["solver.fixed_point_batch.points"] == 5
        assert "sweep.run" in tel["timers"]

    def test_explicit_registry_receives_counts(self):
        reg = MetricsRegistry()
        run_sweep(_spec(), metrics=reg)
        assert reg.counter("sweep.points") == 5
        stats = reg.as_dict()["stats"]
        assert stats["solver.fixed_point_batch.iterations"]["count"] == 5

    def test_disabled_run_has_no_telemetry_key(self):
        result = run_sweep(_spec())
        assert "telemetry" not in result.metadata

    def test_cache_counters(self, tmp_path):
        reg = MetricsRegistry()
        run_sweep(_spec(), cache=tmp_path, metrics=reg)
        run_sweep(_spec(), cache=tmp_path, metrics=reg)
        assert reg.counter("sweep.cache_misses") == 5
        assert reg.counter("sweep.cache_hits") == 5


class TestProgress:
    def test_progress_updates_reach_callable(self):
        updates = []
        run_sweep(_spec(), progress=lambda d, t, i: updates.append((d, t, i)))
        assert updates[0][0] == 0 and updates[0][1] == 5
        assert updates[-1][0] == 5
        # Monotone non-decreasing done counts.
        dones = [d for d, _, _ in updates]
        assert dones == sorted(dones)
        assert updates[-1][2]["routing"]["batch"] == 5

    def test_progress_info_has_spec_and_eta(self):
        infos = []
        run_sweep(_spec(), progress=lambda d, t, i: infos.append(i))
        assert infos[-1]["spec"] == "tel"
        assert "eta" in infos[-1]


class TestInSolveProgress:
    def test_update_arrives_mid_solve(self):
        updates = []
        result = run_sweep(_mc_spec(), progress=_record(updates))
        assert result.metadata["batched"] is True
        total = len(result)
        assert any(0 < done < total for done, _, _ in updates)

    def test_monotone_from_hits_to_total_on_half_warm_cache(self, tmp_path):
        run_sweep(_mc_spec(z0s=(0.0, 2.0)), cache=tmp_path)
        updates = []
        result = run_sweep(_mc_spec(), cache=tmp_path,
                           progress=_record(updates))
        hits, total = result.metadata["cache_hits"], len(result)
        assert 0 < hits < total
        dones = [done for done, _, _ in updates]
        assert dones == sorted(dones)
        assert dones[0] == hits
        assert dones[-1] == total
        assert any(hits < done < total for done in dones)
        assert all(t == total for _, t, _ in updates)
        assert all(info["cache_hits"] == hits for _, _, info in updates)
        assert updates[-1][2]["routing"] == {
            "cached": hits, "batch": total - hits, "scalar": 0, "sim": 0
        }

    def test_updates_per_solve_are_throttled(self):
        updates = []
        run_sweep(_mc_spec(n0s=tuple(range(4, 124, 2))),
                  progress=_record(updates))
        # The initial and final updates plus at most PROGRESS_UPDATES
        # from inside the one solve.
        assert len(updates) <= PROGRESS_UPDATES + 2

    def test_method_axis_sums_kernel_calls_without_overshoot(self):
        updates = []
        reg = MetricsRegistry()
        result = run_sweep(_mc_spec(methods=("bard", "schweitzer")),
                           progress=_record(updates), metrics=reg)
        counters = reg.as_dict()["counters"]
        assert counters["mva.multiclass.bard.solves"] == 1
        assert counters["mva.multiclass.schweitzer.solves"] == 1
        total = len(result)
        dones = [done for done, _, _ in updates]
        assert dones == sorted(dones)
        assert max(dones) == dones[-1] == total

    def test_events_carry_the_same_stream(self):
        log = EventLog()
        updates = []
        run_sweep(_mc_spec(), events=log, progress=_record(updates))
        progress = [r for r in log.records if r["kind"] == "sweep.progress"]
        assert [(r["done"], r["total"]) for r in progress] == [
            (done, total) for done, total, _ in updates
        ]
        assert all("eta" in r for r in progress)

    def test_per_point_pool_path_uses_one_pool(self, monkeypatch):
        pools = []

        class CountingPool(executors.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", CountingPool)
        updates = []
        spec = _spec(n=12)
        result = run_sweep(spec, batch=False, jobs=2,
                           progress=_record(updates))
        assert len(pools) == 1
        # Twelve misses, one update per record as it arrives in order.
        assert [d for d, _, _ in updates] == list(range(13)) + [12]
        assert result.metadata["routing"]["scalar"] == 12
        serial = run_sweep(spec, batch=False)
        assert [r.values for r in result] == [r.values for r in serial]


@pytest.mark.parametrize("rows", [1, 7, 20, 21, 400, 2048])
def test_solve_progress_sums_to_rows(rows):
    sent = []
    tel = obs.Telemetry(progress_sink=sent.append)
    progress = obs.solve_progress(tel, rows)
    for _ in range(rows):
        progress.advance(1)
    progress.close()
    assert sum(sent) == rows
    assert len(sent) <= PROGRESS_UPDATES
    assert obs.solve_progress(None, rows) is None
    assert obs.solve_progress(obs.Telemetry(), rows) is None


class TestEvents:
    def test_event_stream_shape(self):
        log = EventLog()
        run_sweep(_spec(), events=log)
        kinds = [r["kind"] for r in log.records]
        assert kinds[0] == "sweep.start"
        assert kinds[-1] == "sweep.finish"
        assert "sweep.progress" in kinds
        assert "solver.fixed_point_batch" in kinds
        finish = log.records[-1]
        assert finish["points"] == 5
        assert finish["routing"]["batch"] == 5

    def test_solver_events_carry_residual_trajectory(self):
        log = EventLog()
        run_sweep(_spec(), events=log)
        solves = [r for r in log.records
                  if r["kind"] == "solver.fixed_point_batch"]
        assert solves
        trajectory = solves[0]["residual_trajectory"]
        assert len(trajectory) > 1
        assert trajectory[-1] < trajectory[0]

    def test_path_sink_written_and_closed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        run_sweep(_spec(), events=path)
        assert "sweep.finish" in path.read_text()


class TestAmbientBundle:
    def test_enclosing_telemetry_block_is_used(self):
        with obs.telemetry(metrics=True) as tel:
            result = run_sweep(_spec())
        assert tel.metrics.counter("sweep.runs") == 1
        # And the run folded its snapshot into metadata too.
        assert result.metadata["telemetry"]["counters"]["sweep.runs"] == 1

    def test_explicit_argument_wins_over_ambient(self):
        explicit = MetricsRegistry()
        with obs.telemetry(metrics=True) as tel:
            run_sweep(_spec(), metrics=explicit)
        assert explicit.counter("sweep.runs") == 1
        assert tel.metrics.counter("sweep.runs") == 0


class TestMetadata:
    def test_routing_split_always_present(self):
        result = run_sweep(_spec())
        assert result.metadata["routing"] == {
            "cached": 0, "batch": 5, "scalar": 0, "sim": 0
        }

    def test_scalar_routing(self):
        result = run_sweep(_spec(), batch=False)
        assert result.metadata["routing"]["scalar"] == 5

    def test_cache_writes_and_stats(self, tmp_path):
        result = run_sweep(_spec(), cache=tmp_path)
        assert result.metadata["cache_writes"] == 5
        assert result.metadata["cache_stats"]["writes"] == 5
        again = run_sweep(_spec(), cache=tmp_path)
        assert again.metadata["cache_writes"] == 0
        assert again.metadata["cache_hits"] == 5

    def test_summary_mentions_writes_and_routing(self, tmp_path):
        result = run_sweep(_spec(), cache=tmp_path)
        text = result.summary()
        assert "5 write(s)" in text
        assert "5 batch" in text

    def test_nested_dicts_filtered_from_parameters(self):
        result = run_sweep(_spec(), metrics=True)
        params = result.to_experiment_result().parameters
        assert "telemetry" not in params
        assert "routing" not in params


class TestExecutorTelemetry:
    def test_serial_executor_utilization(self):
        reg = MetricsRegistry()
        run_sweep(_spec(), metrics=reg, batch=False)
        d = reg.as_dict()
        assert d["gauges"]["sweep.executor.workers"] == 1.0
        assert d["counters"]["sweep.executor.tasks"] == 5
        util = d["stats"]["sweep.executor.utilization"]
        assert util["count"] >= 1
        assert 0.0 <= util["mean"] <= 1.5  # timer noise bound, not exact
