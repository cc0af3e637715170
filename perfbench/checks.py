"""Output checks, run outside the timed intervals; each returns errors.

* ``serve-mixed``: every served point equals a direct
  ``evaluate_batch([params])`` of the same code, bit for bit; every
  later answer for a key equals its first; every optimize answer equals
  a direct ``scenario(...).optimize(...)``.
* analytic sweeps: every point finite and converged in every round, and
  a fixed sample of grid points within
  :data:`~repro.validation.tolerances.GENERAL_BATCH_REL` of the values
  recorded in ``reference.json``.
* ``sim-sweep``: every round reproduces the first round's events and
  ``R`` exactly, and the fixed anchor points reproduce the recorded
  events and ``R`` exactly.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Grid positions of the recorded sweep sample: (Z0, N0) and (P, W)
#: indices into the workload's axis tuples.
MC_SAMPLE = [(z, n) for z in (0, 5, 10, 19) for n in (0, 7, 19)]
AA_SAMPLE = [(p, w) for p in (0, 14, 31) for w in (0, 31, 63)]


@functools.cache
def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def served_answers(results: list) -> "list[str]":
    """Served answers vs direct library calls of the same code."""
    from repro.sweep.evaluators import evaluate_batch, evaluator_defaults

    errors: list[str] = []
    first: dict[str, dict] = {}
    key_of: dict[int, str] = {}
    for item, _, payload, *_ in results:
        if payload is None:
            continue
        where = f"request {item['i']}"
        if item["op"] == "optimize":
            errors += [f"{where}: {e}" for e in optimize_answer(item, payload)]
            continue
        for name, value in item["params"].items():
            if payload.params.get(name) != value:
                errors.append(f"{where}: answered {name}="
                              f"{payload.params.get(name)!r}, asked {value!r}")
        key = payload.meta["key"]
        key_of[item["i"]] = key
        original = item.get("repeat_of")
        if original in key_of and key_of[original] != key:
            errors.append(f"{where}: repeat of request {original} "
                          f"keyed {key}, original keyed {key_of[original]}")
        values = dict(payload.values)
        if key in first:
            if values != first[key]:
                errors.append(f"{where}: answer for {key} differs from "
                              "its first answer")
            continue
        first[key] = values
        params = evaluator_defaults(payload.evaluator)
        params.update(payload.params)
        direct = evaluate_batch(payload.evaluator, [params])[0]["values"]
        if values != direct:
            errors.append(f"{where}: served {payload.evaluator} answer "
                          f"differs from evaluate_batch: {values} != {direct}")
    return errors


def optimize_answer(item: dict, payload) -> "list[str]":
    """A served OptResult vs the direct facade call (meta aside)."""
    from repro.api.scenario import scenario
    from repro.opt.result import OptResult

    query = dict(item["query"])
    query["over"] = {k: tuple(v) for k, v in query["over"].items()}
    direct = scenario(item["scenario"], **item["params"]).optimize(**query)
    wire = OptResult.from_dict(json.loads(json.dumps(direct.to_dict())))
    want, got = wire.to_dict(), payload.to_dict()
    want.pop("meta")
    got.pop("meta")
    return [] if want == got else [f"optimize answer {got} != direct {want}"]


def _finite(values: dict) -> bool:
    return all(math.isfinite(v) for v in values.values()
               if isinstance(v, (int, float)))


def sweep_round(result: dict) -> "list[str]":
    """One round's grids: finite, converged, recorded sample in the band."""
    from repro.validation.tolerances import GENERAL_BATCH_REL

    reference = load_reference()["sweeps"]
    errors: list[str] = []
    for grid, sweep in result.items():
        bad = [r.index for r in sweep.records
               if not _finite(r.values) or r.meta.get("converged") is False]
        if bad:
            errors.append(f"{grid}: {len(bad)} point(s) non-finite or "
                          f"unconverged, e.g. {bad[:3]}")
        by_params = {sample_key(grid, r.params): r for r in sweep.records}
        for ref in reference[grid]:
            record = by_params.get(sample_key(grid, ref["params"]))
            if record is None:
                errors.append(f"{grid}: sample point {ref['params']} missing")
                continue
            if set(record.values) != set(ref["values"]):
                errors.append(f"{grid}: columns differ at {ref['params']}")
                continue
            for col, want in ref["values"].items():
                got = record.values[col]
                if abs(got - want) > GENERAL_BATCH_REL * max(1.0, abs(want)):
                    errors.append(f"{grid} {ref['params']}: {col}={got!r}, "
                                  f"reference {want!r}")
    return errors


def sample_key(grid: str, params: dict) -> tuple:
    names = ("Z0", "N0") if grid == "mc" else ("P", "W")
    return tuple(params[k] for k in names)


class SimChecker:
    """Rounds reproduce the first; anchors reproduce the reference."""

    def __init__(self) -> None:
        self.reference = load_reference()["sim_anchors"]
        self.first: "dict | None" = None

    def __call__(self, result: dict) -> "list[str]":
        stats = {(name, r.index): (r.meta["events"], r.values["R"])
                 for name, sweep in result.items() for r in sweep.records}
        if self.first is not None:
            return [] if stats == self.first else [
                "simulated events/R differ from the first round with the "
                "same inputs"]
        self.first = stats
        errors = []
        for name, sweep in result.items():
            bad = [r.index for r in sweep.records if not _finite(r.values)]
            if bad:
                errors.append(f"{name}: non-finite values at points {bad}")
            anchor = sweep.records[-1]
            got = {"events": anchor.meta["events"], "R": anchor.values["R"]}
            if got != self.reference[name]:
                errors.append(f"{name} anchor: {got} != reference "
                              f"{self.reference[name]}")
        return errors
