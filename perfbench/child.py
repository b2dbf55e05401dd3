"""One workload run in a fresh interpreter, started by run.py.

Runs the workload exactly as a user would (``symgf.cli.main`` for the CLI
workloads, a short library script for the coordinate-change checks), writes
its report to ``--out`` and exits with the workload's exit code.  Timing
marks and, with ``--spans``, the traced per-layer metrics go to
``--result`` as JSON; run.py reads wall time, CPU time and peak memory of
this process from the operating system.

    python3 perfbench/child.py --workload NAME --grid-seed S --out REPORT \\
        --result RESULT [--spans SPANS.npz]
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def clock() -> float:
    # system-wide, so run.py can subtract its spawn time from these marks
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Phase:
    """First entry into and last exit from any check: the check phase."""

    def __init__(self):
        self.first = None
        self.last = None

    def hook(self, module, names):
        for attr in names:
            fn = getattr(module, attr)

            def timed(*args, _fn=fn, **kwargs):
                if self.first is None:
                    self.first = clock()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    self.last = clock()

            setattr(module, attr, timed)


CHECK_NAMES = ("check_unit", "check_associativity", "check_groupoid", "check_jacobi")


def prepare(spec, phase):
    """Import what the workload imports; return run(grid_seed, out) -> exit code."""
    if spec["kind"] == "cli":
        cli = importlib.import_module("symgf.cli")
        phase.hook(cli, CHECK_NAMES)
        return lambda grid_seed, out: cli.main(
            spec["argv"] + ["--grid-n", str(spec["grid_n"]), "--seed", str(grid_seed),
                            "--out", out])

    # check_unit/associativity/groupoid/jacobi on the symplectic monoid
    # transported by the quadratic map g, then the report, as a script would
    importlib.import_module("symgf")
    mod = {m: importlib.import_module(f"symgf.{m}")
           for m in ("compose", "grids", "maps", "monoids", "serialize", "verify")}
    phase.hook(mod["verify"], CHECK_NAMES)

    def script(grid_seed, out):
        grids, verify, tols = mod["grids"], mod["verify"], spec["tols"]
        n, r, box = spec["grid_n"], spec["p_radius"], spec["y_box"]
        g = mod["maps"].PolyMap(spec["g"], d_in=2)
        C = mod["compose"].change_coordinates(mod["monoids"].symplectic_monoid(2),
                                              mod["compose"].Diffeo(g))
        ps = grids.sample_ball(n, 2, r, grid_seed)
        ys = grids.sample_box(n, 2, -box, box, grid_seed + 1)
        p3s = grids.sample_ball(n, 6, r, grid_seed + 2)
        ays = grids.sample_box(n, 2, -box, box, grid_seed + 3)
        jys = grids.sample_box(n, 2, -box, box, grid_seed + 4)
        reports = [verify.check_unit(C, ps, ys, tols["unit"]),
                   verify.check_associativity(C, p3s, ays, tols["associativity"]),
                   *verify.check_groupoid(C, ps, ys, tols["groupoid"]),
                   verify.check_jacobi(C, jys, tols["jacobi"])]
        config = {"workload": "coord-change-checks", "grid_n": n, "p_radius": r,
                  "y_box": box, "seed": grid_seed, "tol": tols}
        doc = mod["serialize"].reports_to_dict(reports, config=config)
        mod["serialize"].dump(doc, out)
        return doc["exit_code"]

    return script


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--grid-seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    spec = WORKLOADS[args.workload]
    phase = Phase()
    run = prepare(spec, phase)
    symgf = sys.modules["symgf"]
    tracer = None
    if args.spans:
        from tracer import Tracer, layer_metrics
        tracer = Tracer(run_id=f"{args.workload}-grid{args.grid_seed}-pid{os.getpid()}")
        tracer.install()
    code = run(args.grid_seed, args.out)
    result = {"exit_code": code, "t_first_check": phase.first, "t_last_check": phase.last,
              "symgf_file": symgf.__file__}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, os.path.getsize(args.out))
        result["site_hits"] = tracer.site_hits
        tracer.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
