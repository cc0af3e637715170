"""End-to-end tests of the ``lopc-serve/1`` HTTP protocol.

These go through real sockets (ThreadingHTTPServer on a free port) and
the stdlib :class:`~repro.serve.Client`, so they cover exactly the
production path: JSON bodies, status codes, typed round trips, and the
core acceptance criterion that a served sweep's result is identical to
a direct :func:`~repro.sweep.runner.run_sweep`.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.serve import PROTOCOL, Client, ServeError
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec

SIM_SPEC = {
    "name": "http-sim",
    "evaluator": "alltoall-sim",
    "seed": 7,
    "base": {"P": 4, "St": 40.0, "So": 200.0, "C2": 0.0, "cycles": 40},
    "axes": [{"type": "grid", "name": "W", "values": [200.0, 400.0]}],
}


class TestHealthAndIntrospection:
    def test_health(self, http_service):
        client, service = http_service
        health = client.health()
        assert health["ok"] is True
        assert health["protocol"] == PROTOCOL
        assert health["cache"] == "SqliteCache"
        assert health["workers"] == service.workers

    def test_metrics_and_cache_stats(self, http_service):
        client, _ = http_service
        client.health()
        metrics = client.metrics()
        assert metrics["counters"]["serve.requests.health"] >= 1
        stats = client.cache_stats()
        assert stats["backend"] == "SqliteCache"
        assert set(stats["stats"]) == {"hits", "misses", "writes"}


class TestPointQueries:
    def test_scenario_point_matches_direct_facade(self, http_service):
        from repro.api import scenario

        client, _ = http_service
        served = client.point(scenario="alltoall", P=8, St=40.0,
                              So=200.0, W=500.0)
        direct = scenario("alltoall", P=8, St=40.0, So=200.0,
                          W=500.0).analytic()
        assert served.values == direct.values
        assert served.evaluator == direct.evaluator
        assert served.meta["cached"] is False

    def test_second_identical_query_is_served_from_cache(
        self, http_service
    ):
        client, _ = http_service
        params = {"P": 8, "St": 40.0, "So": 200.0, "W": 640.0}
        cold = client.point(scenario="alltoall", **params)
        warm = client.point(scenario="alltoall", **params)
        assert warm.meta["cached"] is True
        assert warm.values == cold.values
        assert warm.meta["key"] == cold.meta["key"]

    def test_bad_point_body_is_400(self, http_service):
        client, _ = http_service
        with pytest.raises(ServeError) as err:
            client.point(scenario="no-such-scenario")
        assert err.value.status in (400, 404)


class TestSweepJobs:
    def test_served_sim_sweep_is_identical_to_direct_run(
        self, http_service
    ):
        """Acceptance criterion: submit -> poll -> fetch must reproduce
        a direct ``run_sweep`` of the same spec exactly."""
        client, _ = http_service
        job_id = client.submit(SIM_SPEC)
        served = client.wait(job_id, timeout=60.0)
        direct = run_sweep(SweepSpec.from_json_dict(SIM_SPEC))
        assert served.evaluator == direct.evaluator
        assert [r.params for r in served] == [r.params for r in direct]
        assert [r.values for r in served] == [r.values for r in direct]

    def test_status_streams_events_incrementally(self, http_service):
        client, _ = http_service
        job_id = client.submit(SIM_SPEC)
        client.wait(job_id, timeout=60.0)
        first = client.status(job_id, since=0)
        assert first["state"] == "done"
        assert first["progress"]["done"] == first["progress"]["total"] == 2
        kinds = [e["kind"] for e in first["stream"]["events"]]
        assert kinds[0] == "sweep.start"
        assert kinds[-1] == "sweep.finish"
        again = client.status(job_id, since=first["stream"]["next"])
        assert again["stream"]["events"] == []

    def test_jobs_listing(self, http_service):
        client, _ = http_service
        job_id = client.submit(SIM_SPEC)
        client.wait(job_id, timeout=60.0)
        assert any(j["job"] == job_id for j in client.jobs())

    def test_result_before_done_is_409(self, http_service, make_evaluator):
        name, _ = make_evaluator(delay=0.4)
        client, _ = http_service
        job_id = client.submit({
            "name": "slow", "evaluator": name,
            "axes": [{"type": "grid", "name": "W", "values": [1.0]}],
        })
        with pytest.raises(ServeError) as err:
            client.result(job_id)
        assert err.value.status == 409
        client.wait(job_id, timeout=30.0)  # drain before teardown

    def test_negative_since_is_400(self, http_service):
        client, _ = http_service
        job_id = client.submit({
            "name": "since", "evaluator": "alltoall-model",
            "base": {"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0},
            "axes": [{"type": "grid", "name": "W", "values": [100.0]}],
        })
        assert client.status(job_id, since=0)["state"] == "done"
        with pytest.raises(ServeError) as err:
            client.status(job_id, since=-1)
        assert err.value.status == 400
        assert "since" in str(err.value)

    def test_unknown_job_is_404(self, http_service):
        client, _ = http_service
        with pytest.raises(ServeError) as err:
            client.status("job-4242")
        assert err.value.status == 404


class TestOptimize:
    def test_optimize_round_trips_typed_result(self, http_service):
        client, _ = http_service
        result = client.optimize(
            "alltoall", {"P": 8, "St": 40.0, "So": 200.0},
            minimize="R", over={"W": [100.0, 1000.0]},
        )
        assert result.feasible
        assert 100.0 <= result.argbest["W"] <= 1000.0


class TestProtocolEdges:
    def test_unknown_endpoint_is_404(self, http_service):
        client, _ = http_service
        with pytest.raises(ServeError) as err:
            client._get("/v1/nope")
        assert err.value.status == 404
        assert "no such endpoint" in err.value.message

    def test_non_object_body_is_400(self, http_service):
        client, _ = http_service
        request = urllib.request.Request(
            client.base_url + "/v1/point",
            data=json.dumps([1, 2]).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10.0)
        assert err.value.code == 400

    def test_unreachable_server_raises_serve_error(self):
        client = Client("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServeError) as err:
            client.health()
        assert err.value.status == 0
