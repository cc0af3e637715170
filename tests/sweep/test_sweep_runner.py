"""Tests for run_sweep: caching, resume, metadata, ordering."""

import pytest

import repro.sweep.evaluators as evaluators_mod
from repro.sweep import (
    GridAxis,
    ResultCache,
    SweepSpec,
    run_sweep,
)

_BASE = {"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0}


def _model_spec(works=(2.0, 64.0, 1024.0), name="runner-test"):
    return SweepSpec(name=name, evaluator="alltoall-model", base=_BASE,
                     axes=(GridAxis("W", tuple(works)),))


def _sim_spec(works=(16.0, 256.0), cycles=40, seed=5, name="runner-sim"):
    return SweepSpec(name=name, evaluator="alltoall-sim",
                     base=dict(_BASE, cycles=cycles, seed=seed),
                     axes=(GridAxis("W", tuple(works)),))


class TestRunSweep:
    def test_records_in_point_order(self):
        result = run_sweep(_model_spec())
        assert [r.params["W"] for r in result] == [2.0, 64.0, 1024.0]
        assert [r.index for r in result] == [0, 1, 2]

    def test_unknown_evaluator_fails_fast(self):
        spec = SweepSpec(name="x", evaluator="bogus",
                         axes=(GridAxis("W", (1.0,)),))
        with pytest.raises(KeyError, match="bogus"):
            run_sweep(spec)

    def test_metadata_without_cache(self):
        result = run_sweep(_model_spec())
        meta = result.metadata
        assert meta["points"] == 3
        assert meta["cache_enabled"] is False
        assert meta["cache_misses"] == 3
        assert meta["jobs"] == 1
        assert meta["wall_time"] >= 0.0

    def test_sim_metadata_reports_events(self):
        result = run_sweep(_sim_spec())
        assert result.metadata["events_processed"] > 0
        for record in result:
            assert record.meta["events"] > 0
            assert record.meta["cached"] is False

    def test_cold_then_warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _model_spec()
        cold = run_sweep(spec, cache=cache)
        assert cold.metadata["cache_misses"] == 3
        assert cold.metadata["cache_hits"] == 0
        warm = run_sweep(spec, cache=cache)
        assert warm.metadata["cache_misses"] == 0
        assert warm.metadata["cache_hits"] == 3
        assert [r.values for r in cold] == [r.values for r in warm]
        assert all(r.meta["cached"] for r in warm)

    def test_warm_cache_skips_evaluator_entirely(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = _sim_spec()
        run_sweep(spec, cache=cache)

        def explode(task):
            raise AssertionError(f"evaluator ran on warm cache: {task}")

        monkeypatch.setattr(evaluators_mod._REGISTRY["alltoall-sim"], "func",
                            explode)
        warm = run_sweep(spec, cache=cache)
        assert warm.metadata["cache_misses"] == 0

    def test_partial_cache_resumes(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_model_spec(works=(2.0, 64.0)), cache=cache)
        # A superset sweep (interrupted-and-restarted, or overlapping)
        # only solves the new points.
        result = run_sweep(_model_spec(works=(2.0, 64.0, 1024.0)),
                           cache=cache)
        assert result.metadata["cache_hits"] == 2
        assert result.metadata["cache_misses"] == 1

    def test_overlapping_sweeps_share_cache_across_names(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_model_spec(name="first"), cache=cache)
        other = run_sweep(_model_spec(name="second"), cache=cache)
        assert other.metadata["cache_misses"] == 0

    def test_cache_accepts_path(self, tmp_path):
        run_sweep(_model_spec(), cache=tmp_path)
        warm = run_sweep(_model_spec(), cache=str(tmp_path))
        assert warm.metadata["cache_misses"] == 0

    def test_parallel_equals_serial_with_and_without_cache(self, tmp_path):
        spec = _sim_spec(works=(16.0, 64.0, 256.0))
        serial = run_sweep(spec)
        parallel = run_sweep(spec, jobs=2)
        assert [r.values for r in serial] == [r.values for r in parallel]
        cached = run_sweep(spec, cache=tmp_path, jobs=2)
        warm = run_sweep(spec, cache=tmp_path)
        assert [r.values for r in cached] == [r.values for r in warm]
        assert warm.metadata["cache_misses"] == 0

    def test_omitted_and_explicit_defaults_share_cache_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        implicit = SweepSpec(
            name="implicit", evaluator="alltoall-sim",
            base=dict(_BASE, cycles=40),  # seed/work_cv2 omitted
            axes=(GridAxis("W", (16.0,)),),
        )
        explicit = SweepSpec(
            name="explicit", evaluator="alltoall-sim",
            base=dict(_BASE, cycles=40, seed=0, work_cv2=0.0,
                      latency_cv2=0.0),
            axes=(GridAxis("W", (16.0,)),),
        )
        run_sweep(implicit, cache=cache)
        warm = run_sweep(explicit, cache=cache)
        assert warm.metadata["cache_misses"] == 0

    def test_defaults_appear_in_record_params(self):
        result = run_sweep(SweepSpec(
            name="d", evaluator="workpile-sim",
            base={"P": 8, "St": 10.0, "So": 131.0, "C2": 0.0, "W": 250.0,
                  "chunks": 30},
            axes=(GridAxis("Ps", (2,)),),
        ))
        (record,) = result.records
        # Omitted result-affecting params are made explicit (and the
        # chunks default follows fig-6.2, not run_workpile's 300).
        assert record.params["seed"] == 0
        assert record.params["chunks"] == 30

    def test_cached_values_equal_fresh_values(self, tmp_path):
        # JSON round-trip must not perturb floats (repr round-trip).
        spec = _model_spec()
        fresh = run_sweep(spec)
        run_sweep(spec, cache=tmp_path)
        warm = run_sweep(spec, cache=tmp_path)
        for a, b in zip(fresh, warm):
            assert a.values == b.values
