"""Differential test: a served point answers exactly like a direct call.

A seeded mix of valid, invalid (``W < 0``) and duplicate points goes
through one :class:`~repro.serve.SweepService` concurrently, with a
batch window wide enough that the requests co-batch.  Every response
must equal what a lone ``evaluate_batch(evaluator, [params])`` call
gives -- the same values bit for bit, or a ``ValueError`` with the same
message -- so an invalid point can never fail its batch-mates, and
singleflight coalescing must still evaluate each key exactly once.
"""

from __future__ import annotations

import random
import threading
from collections import Counter

import pytest

import repro.serve.service as service_mod
from repro.serve import SweepService
from repro.sweep.cache import point_key
from repro.sweep.evaluators import evaluate_batch, evaluator_defaults

_MACHINES = {
    "alltoall-model": {"P": 16, "St": 40.0, "So": 200.0, "C2": 0.0},
    "workpile-model": {"P": 16, "St": 10.0, "So": 131.0, "C2": 0.0, "Ps": 4},
}


def _mix(seed: int) -> "list[tuple[str, dict]]":
    """Per evaluator: four valid and two invalid points, plus duplicates."""
    rng = random.Random(seed)
    distinct = []
    for evaluator, machine in sorted(_MACHINES.items()):
        works = [rng.uniform(50.0, 5000.0) for _ in range(4)]
        works += [-rng.uniform(1.0, 100.0) for _ in range(2)]
        distinct += [(evaluator, dict(machine, W=w)) for w in works]
    queries = distinct + [rng.choice(distinct) for _ in range(6)]
    rng.shuffle(queries)
    return queries


def _direct(evaluator: str, params: dict) -> "dict | ValueError":
    full = evaluator_defaults(evaluator)
    full.update(params)
    try:
        return evaluate_batch(evaluator, [full])[0]["values"]
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cobatched_answers_match_direct_calls(tmp_path, monkeypatch, seed):
    evaluated: Counter = Counter()
    real_evaluate_batch = service_mod.evaluate_batch

    def counting(name, params_list):
        records = real_evaluate_batch(name, params_list)
        evaluated.update(point_key(name, p) for p in params_list)
        return records

    monkeypatch.setattr(service_mod, "evaluate_batch", counting)
    queries = _mix(seed)
    answers: list = [None] * len(queries)
    with SweepService(
        tmp_path / "cache.sqlite", workers=2, batch_window=0.2
    ) as service:
        barrier = threading.Barrier(len(queries))

        def query(i: int) -> None:
            evaluator, params = queries[i]
            barrier.wait()
            try:
                answers[i] = service.point(evaluator, params)
            except Exception as exc:  # compared against the direct call
                answers[i] = exc

        threads = [threading.Thread(target=query, args=(i,))
                   for i in range(len(queries))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counters = service.metrics_snapshot()["counters"]
        writes = service.cache.stats.writes

    assert counters.get("serve.batch.merged", 0) > 0  # really co-batched
    valid_keys, error_ids = set(), {}
    for (evaluator, params), answer in zip(queries, answers):
        key = point_key(evaluator, params)
        expected = _direct(evaluator, params)
        if isinstance(expected, ValueError):
            assert isinstance(answer, ValueError), (params, answer)
            assert str(answer) == str(expected)
            error_ids.setdefault(key, set()).add(id(answer))
        else:
            assert not isinstance(answer, Exception), (params, answer)
            assert answer.values == expected  # dict equality: bitwise
            valid_keys.add(key)

    # Each invalid key raised its own error, never a batch-mate's.
    seen: set = set()
    for ids in error_ids.values():
        assert not ids & seen
        seen |= ids
    # Coalescing: one successful evaluation and one cache write per key.
    assert {k: evaluated[k] for k in valid_keys} == dict.fromkeys(
        valid_keys, 1
    )
    assert not any(evaluated[k] for k in error_ids)
    assert writes == len(valid_keys)
