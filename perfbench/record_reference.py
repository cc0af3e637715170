"""Rewrite ``reference.json``: the recorded answers the checks compare to.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record_reference.py

Only re-record when the model's answers are meant to change; a speed-up
must pass against the existing file.
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import checks, workloads
    from repro.sweep.runner import run_sweep

    specs = workloads.grids(0)
    samples = {
        "mc": {(workloads.MC_Z0[z], workloads.MC_N0[n])
               for z, n in checks.MC_SAMPLE},
        "aa": {(workloads.AA_P[p], workloads.AA_W[w])
               for p, w in checks.AA_SAMPLE},
    }
    sweeps = {}
    for grid, spec in specs.items():
        records = run_sweep(spec).records
        sweeps[grid] = sorted(
            ({"params": r.params, "values": r.values} for r in records
             if checks.sample_key(grid, r.params) in samples[grid]),
            key=lambda e: checks.sample_key(grid, e["params"]),
        )
    anchors = {}
    for name, spec in workloads.sim_specs(0).items():
        anchor = run_sweep(spec).records[-1]
        anchors[name] = {"events": anchor.meta["events"],
                         "R": anchor.values["R"]}
    checks.REFERENCE.write_text(json.dumps(
        {"sweeps": sweeps, "sim_anchors": anchors}, indent=1, sort_keys=True
    ) + "\n")
    print(f"wrote {checks.REFERENCE}")
