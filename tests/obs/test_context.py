"""The active-bundle context: activation, nesting, coercion, cleanup."""

from __future__ import annotations

import sys
import threading

from repro import obs
from repro.obs import EventLog, MetricsRegistry, Telemetry
from repro.obs import context as obs_context
from repro.sweep import GridAxis, SweepSpec, run_sweep


class TestActive:
    def test_disabled_by_default(self):
        assert obs_context.active() is None
        assert obs_context.current_metrics() is None

    def test_activate_installs_and_restores(self):
        tel = Telemetry(metrics=MetricsRegistry())
        with obs_context.activate(tel):
            assert obs_context.active() is tel
            assert obs_context.current_metrics() is tel.metrics
        assert obs_context.active() is None

    def test_activation_nests(self):
        outer = Telemetry(metrics=MetricsRegistry())
        inner = Telemetry(metrics=MetricsRegistry())
        with obs_context.activate(outer):
            with obs_context.activate(inner):
                assert obs_context.active() is inner
            assert obs_context.active() is outer

    def test_restored_on_exception(self):
        try:
            with obs_context.activate(Telemetry(metrics=MetricsRegistry())):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert obs_context.active() is None


class TestThreadIsolation:
    def test_other_threads_do_not_see_the_bundle(self):
        seen = []
        with obs_context.activate(Telemetry(metrics=MetricsRegistry())):
            t = threading.Thread(target=lambda: seen.append(
                obs_context.active()))
            t.start()
            t.join(timeout=10)
        assert not t.is_alive()
        assert seen == [None]

    def test_concurrent_sweeps_keep_their_own_streams(self):
        """An observed sweep's log holds only its own solves while
        unobserved sweeps run on other threads, and no bundle is left
        active afterwards (a shared global lost updates here)."""
        def spec(n):
            return SweepSpec(
                name=f"iso-{n}", evaluator="alltoall-model",
                base={"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0},
                axes=(GridAxis("W", tuple(10.0 * (i + 1)
                                          for i in range(n))),),
            )

        foreign: list = []

        def observed():
            for _ in range(20):
                log = EventLog()
                run_sweep(spec(7), events=log, progress=lambda *a: None)
                foreign.extend(
                    r["points"] for r in log.records
                    if r["kind"] == "solver.fixed_point_batch"
                    and r["points"] != 7
                )

        def plain():
            for _ in range(20):
                run_sweep(spec(5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=f)
                       for f in (observed, plain, plain, observed)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert foreign == []
        assert obs_context.active() is None


class TestTelemetryBundle:
    def test_enabled_property(self):
        assert not Telemetry().enabled
        assert Telemetry(metrics=MetricsRegistry()).enabled
        assert Telemetry(events=EventLog()).enabled
        assert Telemetry(progress=lambda *a: None).enabled


class TestTelemetryContextManager:
    def test_metrics_true_makes_fresh_registry(self):
        with obs.telemetry(metrics=True) as tel:
            assert isinstance(tel.metrics, MetricsRegistry)
            assert obs_context.current_metrics() is tel.metrics

    def test_metrics_registry_passes_through(self):
        reg = MetricsRegistry()
        with obs.telemetry(metrics=reg) as tel:
            assert tel.metrics is reg

    def test_events_path_opened_and_closed(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with obs.telemetry(events=path) as tel:
            tel.events.emit("x")
        assert path.read_text().strip()
        # Closed on exit: the underlying file no longer accepts writes.
        assert tel.events._file is None

    def test_progress_callable_coerced(self):
        seen = []
        with obs.telemetry(progress=lambda d, t, i: seen.append(d)) as tel:
            tel.progress.update(1, 2, {})
        assert seen == [1]

    def test_all_none_bundle_still_activates(self):
        with obs.telemetry() as tel:
            assert not tel.enabled
            assert obs_context.active() is tel
