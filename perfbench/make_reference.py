#!/usr/bin/env python3
"""Record the correctness reference of every workload on every pool grid.

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload in this process, once per pool entry, exactly as
child.py does, and stores the exit code, per-axiom verdicts and residual
maxima (plus the order-2 gate weights) in perfbench/reference.json.  Only
the named workloads (default: all) are replaced.  Refuses to record a
workload that fails any check: the benchmark's workloads must pass.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import Phase, prepare  # noqa: E402
from workloads import AXIOMS, POOL, WORKLOADS, grid_seed  # noqa: E402

REFERENCE = HERE / "reference.json"


def record(name: str) -> dict:
    spec = WORKLOADS[name]
    run = prepare(spec, Phase())
    grids = []
    out = HERE.parent / ".bench_out" / f"reference-{name}.json"
    out.parent.mkdir(exist_ok=True)
    for i in range(POOL):
        gs = grid_seed(i)
        code = run(gs, str(out))
        doc = json.loads(out.read_text())
        reports = {r["axiom"]: r for r in doc["reports"]}
        entry = {"grid_seed": gs, "exit_code": code,
                 "verdict": {a: not reports[a]["failures"] for a in AXIOMS},
                 "max": {a: reports[a]["max"] for a in AXIOMS}}
        if "order2_gate" in doc:
            entry["order2_gate"] = {k: doc["order2_gate"][k] for k in ("c1", "c2")}
        if code != 0 or not all(entry["verdict"].values()):
            raise SystemExit(f"{name} fails on grid seed {gs}: {entry}")
        grids.append(entry)
        print(f"{name} grid {i}: {entry['max']}", flush=True)
    return {"grid_n": spec["grid_n"], "grids": grids}


def main(names):
    names = names or list(WORKLOADS)
    results = {name: record(name) for name in names}
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    ref["workloads"].update(results)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
