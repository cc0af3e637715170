"""The seeded request stream of the ``serve-mixed`` workload.

Item ``i`` depends only on the seed and the items before it, so any
run length sees a prefix of the same stream.  Shares are fixed by
construction, not by timing:

* :data:`OPT_SHARE` of items are ``optimize`` (budget) queries;
* of the point queries, :data:`REPEAT_SHARE` repeat the key of an
  earlier fresh point (a cache hit once that point has been written);
* the rest are fresh keys, drawn from continuous ranges so they never
  collide, split evenly across the ``alltoall``, ``workpile`` and
  ``multiclass`` (Schweitzer) scenarios.
"""

from __future__ import annotations

import random
from typing import Iterator

#: A little under half: at 0.5 the hits (~2 ms) and misses (~8 ms and
#: up) split the requests evenly, the median falls in the gap between
#: the two modes, and a one-point change in the realised share moves it
#: by a fifth.  At 0.4 the median sits inside the miss mode.
REPEAT_SHARE = 0.4
OPT_SHARE = 0.05

SCENARIOS = ("alltoall", "workpile", "multiclass")


def _fresh_params(rng: random.Random, scenario: str) -> "dict[str, object]":
    def u(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 4)

    if scenario == "alltoall":
        return {"P": rng.randint(4, 64), "St": u(10, 60), "So": u(50, 300),
                "C2": rng.choice((0.0, 0.5, 1.0)), "W": u(100, 5000)}
    if scenario == "workpile":
        procs = rng.randint(8, 64)
        return {"P": procs, "Ps": rng.randint(1, procs // 2),
                "St": u(10, 60), "So": u(50, 300), "W": u(100, 5000)}
    return {"N0": rng.randint(2, 40), "N1": rng.randint(2, 40),
            "Z0": u(0, 8), "Z1": u(0, 8),
            "D0_0": u(0.5, 1.5), "D0_1": u(0.5, 1.5),
            "D1_0": u(0.5, 1.5), "D1_1": u(0.5, 1.5),
            "method": "schweitzer"}


def _optimize_query(rng: random.Random) -> "dict[str, object]":
    """Largest W whose all-to-all response time stays within a budget."""
    return {
        "scenario": "alltoall",
        "params": {"P": rng.randint(4, 64), "St": round(rng.uniform(10, 60), 4),
                   "So": round(rng.uniform(50, 300), 4)},
        "query": {"maximize": "W", "over": {"W": [1.0, 20000.0]},
                  "subject_to": f"R <= {rng.randint(2000, 15000)}"},
    }


def stream(seed: int) -> "Iterator[dict[str, object]]":
    """Endless request items: ``{"i", "op", "fresh", ...}``.

    Point items carry ``scenario`` and ``params``; a repeat also carries
    ``repeat_of``, the index of the fresh item whose key it reuses.
    Optimize items carry ``scenario``, ``params`` and ``query``.
    """
    rng = random.Random(seed)
    fresh: list[dict[str, object]] = []
    i = 0
    while True:
        if rng.random() < OPT_SHARE:
            item = {"i": i, "op": "optimize", "fresh": True,
                    **_optimize_query(rng)}
        elif fresh and rng.random() < REPEAT_SHARE:
            original = fresh[rng.randrange(len(fresh))]
            item = {"i": i, "op": "point", "fresh": False,
                    "scenario": original["scenario"],
                    "params": original["params"],
                    "repeat_of": original["i"]}
        else:
            scenario = SCENARIOS[rng.randrange(len(SCENARIOS))]
            item = {"i": i, "op": "point", "fresh": True,
                    "scenario": scenario,
                    "params": _fresh_params(rng, scenario)}
            fresh.append(item)
        yield item
        i += 1
