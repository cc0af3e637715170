"""Typed client for the ``lopc-serve/1`` HTTP protocol.

Stdlib-only (:mod:`urllib.request`); every method returns the same
typed objects the in-process facade does -- ``point`` gives a
:class:`~repro.api.Solution`, ``result``/``wait`` give a
:class:`~repro.sweep.SweepResult`, ``optimize`` gives an
:class:`~repro.opt.result.OptResult` -- so moving code between
in-process and served execution is a one-line change.

>>> client = Client("http://127.0.0.1:8421")           # doctest: +SKIP
>>> sol = client.point(scenario="alltoall", P=32,
...                    St=40.0, So=200.0, W=1000.0)    # doctest: +SKIP
>>> job = client.submit(spec)                          # doctest: +SKIP
>>> result = client.wait(job)                          # doctest: +SKIP
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Mapping

__all__ = ["Client", "ServeError"]


class ServeError(RuntimeError):
    """A non-2xx server reply, carrying the HTTP status and message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message


class Client:
    """Talks ``lopc-serve/1`` to one server."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------
    def _request(self, method: str, path: str,
                 body: object | None = None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except (ValueError, AttributeError):
                message = str(exc)
            raise ServeError(exc.code, message) from None
        except urllib.error.URLError as exc:
            raise ServeError(0, f"cannot reach {self.base_url}: "
                                f"{exc.reason}") from None

    def _get(self, path: str) -> dict:
        return self._request("GET", path)

    def _post(self, path: str, body: object) -> dict:
        return self._request("POST", path, body)

    # -- endpoints -----------------------------------------------------
    def health(self) -> dict:
        return self._get("/v1/health")

    def point(self, *, scenario: str | None = None,
              backend: str = "analytic", evaluator: str | None = None,
              **params: object):
        """One point query, returned as a typed Solution."""
        from repro.api.solution import Solution

        body: dict[str, object] = {"params": params}
        if scenario is not None:
            body["scenario"] = scenario
            body["backend"] = backend
        if evaluator is not None:
            body["evaluator"] = evaluator
        return Solution.from_dict(self._post("/v1/point", body))

    def submit(self, spec) -> str:
        """Submit a sweep (SweepSpec or its JSON dict); returns job id."""
        payload = spec.to_json_dict() if hasattr(spec, "to_json_dict") \
            else dict(spec)
        status = self._post("/v1/sweep", {"spec": payload})
        return str(status["job"])

    def jobs(self) -> "list[dict]":
        return self._get("/v1/jobs")["jobs"]

    def status(self, job_id: str, since: int = 0) -> dict:
        """Job status; ``stream.events``/``stream.next`` page the log."""
        return self._get(f"/v1/jobs/{job_id}?since={int(since)}")

    def result(self, job_id: str):
        """The finished job's SweepResult (raises 409 until done)."""
        from repro.sweep.results import SweepResult

        return SweepResult.from_dict(self._get(f"/v1/jobs/{job_id}/result"))

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.05):
        """Poll until the job completes; returns its SweepResult."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] == "done":
                return self.result(job_id)
            if status["state"] == "error":
                raise ServeError(
                    500, status.get("error", f"job {job_id} failed")
                )
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(poll)

    def optimize(self, scenario: str,
                 params: Mapping[str, object] | None = None,
                 **query: object):
        """Inverse query via the server; returns a typed OptResult."""
        from repro.opt.result import OptResult

        return OptResult.from_dict(self._post("/v1/optimize", {
            "scenario": scenario,
            "params": dict(params or {}),
            "query": query,
        }))

    def cache_stats(self) -> dict:
        return self._get("/v1/cache/stats")

    def metrics(self) -> dict:
        return self._get("/metrics")
