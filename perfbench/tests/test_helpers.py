"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import itertools
import math

import pytest

from perfbench import checks, keystream, measure
from perfbench.ledger import Spans


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (5, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
        (1000, 99.0), (9999, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert measure.tail_percentile(n) == expected

    def test_samples_beyond(self):
        assert measure.samples_beyond(100, 90.0) == 10
        assert measure.samples_beyond(99, 90.0) == 9

    def test_nearest_rank_and_failures_rank_last(self):
        values = [float(v) for v in range(1, 101)]
        assert measure.percentile(values, 50) == 50.0
        assert measure.percentile(values, 90) == 90.0
        values[-11:] = [math.inf] * 11  # failed requests exceed any limit
        assert measure.percentile(values, 90) == math.inf
        assert measure.percentile(values, 50) == 50.0


class TestSelfTime:
    def test_children_are_subtracted_once_where_they_overlap(self):
        children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]
        assert measure.self_time(0.0, 10.0, children) == pytest.approx(6.0)

    def test_children_are_clipped_to_the_parent(self):
        assert measure.self_time(2.0, 5.0, [(0.0, 3.0), (4.5, 9.0)]) == \
            pytest.approx(1.5)

    def test_no_children(self):
        assert measure.self_time(1.0, 2.5, []) == pytest.approx(1.5)

    def test_linked_spans_from_other_threads_count_as_children(self):
        spans = [
            {"id": 1, "name": "serve.service", "start": 0.0, "end": 10.0,
             "parent": None},
            {"id": 2, "name": "sweep.cache.get", "start": 0.5, "end": 1.0,
             "parent": 1},
            {"id": 3, "name": "sweep.evaluators", "start": 3.0, "end": 8.0,
             "parent": None, "links": [1]},
        ]
        assert Spans(spans).self_s(spans[0]) == pytest.approx(4.5)


class TestKeyStream:
    def test_prefix_stable_per_seed(self):
        short = list(itertools.islice(keystream.stream(7), 100))
        long = list(itertools.islice(keystream.stream(7), 1000))
        assert long[:100] == short
        other = list(itertools.islice(keystream.stream(8), 100))
        assert other != short

    def test_stated_shares(self):
        items = list(itertools.islice(keystream.stream(3), 20000))
        points = [it for it in items if it["op"] == "point"]
        optimize = len(items) - len(points)
        repeats = [it for it in points if not it["fresh"]]
        assert optimize / len(items) == pytest.approx(
            keystream.OPT_SHARE, abs=0.01)
        assert len(repeats) / len(points) == pytest.approx(
            keystream.REPEAT_SHARE, abs=0.02)

    def test_repeats_reuse_an_earlier_fresh_key(self):
        items = list(itertools.islice(keystream.stream(5), 2000))
        for item in items:
            if item["op"] == "point" and not item["fresh"]:
                original = items[item["repeat_of"]]
                assert original["i"] < item["i"] and original["fresh"]
                assert original["params"] == item["params"]

    def test_fresh_keys_never_collide(self):
        items = itertools.islice(keystream.stream(11), 5000)
        fresh = [repr(sorted(it["params"].items())) for it in items
                 if it["op"] == "point" and it["fresh"]]
        assert len(set(fresh)) == len(fresh)


class TestServedAnswerCheck:
    @pytest.fixture(scope="class")
    def served(self):
        from repro.serve import SweepService

        items = [it for it in itertools.islice(keystream.stream(2), 60)
                 if it["op"] == "point"]
        with SweepService() as service:
            return [(it, 0.001, service.solution(
                scenario=it["scenario"], params=it["params"]), None, 0.0)
                for it in items]

    def test_faithful_answers_pass(self, served):
        assert checks.served_answers(served) == []

    def test_a_wrong_served_answer_is_caught(self, served):
        from repro.api.solution import Solution

        item, latency, payload, error, done = served[0]
        data = payload.to_dict()
        column = sorted(data["values"])[0]
        data["values"][column] *= 1.0 + 1e-12
        wrong = Solution.from_dict(data)
        errors = checks.served_answers([(item, latency, wrong, error, done)])
        assert len(errors) == 1 and "differs from evaluate_batch" in errors[0]

    def test_a_cache_hit_that_differs_from_its_first_answer_is_caught(
            self, served):
        from repro.api.solution import Solution

        item, latency, payload, error, done = served[0]
        data = payload.to_dict()
        data["values"] = {k: v * 2 for k, v in data["values"].items()}
        repeat = dict(item, i=item["i"] + 10_000, fresh=False,
                      repeat_of=item["i"])
        errors = checks.served_answers([
            served[0], (repeat, latency, Solution.from_dict(data), None, done)])
        assert len(errors) == 1 and "differs from its first answer" in errors[0]
