"""Span recording for the traced run, from outside the program.

No span lives inside ``src/``: :func:`install` replaces each layer's
public function *where its caller resolves it* (a module attribute or a
class method) with a wrapper that records a span, and
:meth:`Recorder.uninstall` puts the originals back.  The untraced run
never imports this module's wrappers, so its numbers carry no tracing
cost; the traced run reports the difference as its overhead.

A span is ``{"id", "name", "start", "end", "parent", "request",
"thread", ...attrs}``.  ``parent`` is the enclosing span on the same
thread.  Work done on another thread for a request -- the service's
batcher solving a co-arriving batch and writing the cache -- records
``links``: the service spans of every request it served, found through
the point key each request computed.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

class Recorder:
    """Keeps spans in memory; :meth:`dump` writes them as JSON."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: point key -> (service span id, request id, key time)
        self.key_owner: dict[str, tuple[int, int, float]] = {}

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "dict | None":
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, links: "list[int] | None" = None,
             **attrs: object) -> Iterator[dict]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        record = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": parent["request"] if parent else span_id,
            "thread": threading.get_ident(),
            **attrs,
        }
        if links:
            record["links"] = links
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    # -- patching ------------------------------------------------------
    def patch(self, owner: object, attr: str, name: str,
              after: "Callable[[dict, tuple, object], None] | None" = None,
              before: "Callable[[tuple], dict] | None" = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` returns extra span attributes (``links`` among
        them) and ``after(record, args, result)`` reads the result; both
        run outside the timed interval.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = before(args) if before is not None else {}
            with recorder.span(name, **attrs) as record:
                result = original(*args, **kwargs)
            if after is not None:
                after(record, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: "str | Path") -> None:
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s["start"])
        Path(path).write_text(json.dumps({"spans": spans}))


def _points(args: tuple) -> dict:
    return {"points": len(args[0])}


def _iterations(record: dict, args: tuple, result: object) -> None:
    record["iterations"] = [int(n) for n in result.iterations]


def _sim_events(record: dict, args: tuple, result: object) -> None:
    record["events"] = int(result.meta["events"])


def _opt_counts(record: dict, args: tuple, result: object) -> None:
    record["points"] = int(result.points)
    record["solves"] = int(result.solves)


def install(recorder: Recorder, serve: bool = False) -> None:
    """Wrap every layer's public entry points the workloads reach."""
    import repro.api.scenarios as scenarios
    import repro.core.alltoall as alltoall
    import repro.core.client_server as client_server
    import repro.opt.optimizer as optimizer
    import repro.sweep.executors as executors
    import repro.sweep.runner as runner
    import repro.workloads.alltoall as sim_alltoall
    import repro.workloads.workpile as sim_workpile

    rec = recorder
    rec.patch(runner, "run_sweep", "sweep.runner")
    rec.patch(runner, "evaluate_batch", "sweep.evaluators")
    rec.patch(executors, "evaluate_point", "sweep.evaluators")
    rec.patch(scenarios, "solve_batch", "kernel.alltoall", before=_points)
    rec.patch(scenarios, "solve_workpile_batch", "kernel.workpile",
              before=_points)
    rec.patch(scenarios, "batch_multiclass_amva", "kernel.multiclass",
              before=_points, after=_iterations)
    rec.patch(alltoall, "solve_fixed_point_batch", "core.solver",
              after=_iterations)
    rec.patch(client_server, "solve_fixed_point_batch", "core.solver",
              after=_iterations)
    rec.patch(sim_alltoall, "run_alltoall", "sim", after=_sim_events)
    rec.patch(sim_workpile, "run_workpile", "sim", after=_sim_events)
    rec.patch(optimizer, "run_optimize", "opt", after=_opt_counts)
    if serve:
        _install_serve(rec)


def _install_serve(rec: Recorder) -> None:
    import repro.serve.http as http
    import repro.serve.service as service
    from repro.sweep.cache import SqliteCache, point_key

    handler = http._Handler  # the server resolves its handler class here
    rec.patch(handler, "do_GET", "serve.http")
    rec.patch(handler, "do_POST", "serve.http")
    rec.patch(service.SweepService, "solution", "serve.service")
    rec.patch(service.SweepService, "optimize", "serve.service")

    def keyed(evaluator, params):
        key = point_key(evaluator, params)
        owner = rec.current()
        if owner is not None:
            # First registrant wins: that request leads the flight.
            rec.key_owner.setdefault(
                key, (owner["id"], owner["request"], time.perf_counter())
            )
        return key

    service.point_key = keyed
    rec._patches.append((service, "point_key", point_key))

    def batch_attrs(args: tuple) -> dict:
        evaluator, params_list = args
        keys = [point_key(evaluator, p) for p in params_list]
        owners = [rec.key_owner[k] for k in keys if k in rec.key_owner]
        now = time.perf_counter()
        # waits: point entry (its key computation) to this batch's start.
        return {"keys": keys, "links": [o[0] for o in owners],
                "waits": [now - o[2] for o in owners]}

    rec.patch(service, "evaluate_batch", "sweep.evaluators",
              before=batch_attrs)

    def get_hit(record: dict, args: tuple, result: object) -> None:
        record["hit"] = result is not None

    def put_attrs(args: tuple) -> dict:
        owner = rec.key_owner.get(args[1])
        return {"links": [owner[0]]} if owner else {}

    rec.patch(SqliteCache, "get", "sweep.cache.get", after=get_hit)
    rec.patch(SqliteCache, "put", "sweep.cache.put", before=put_attrs)
