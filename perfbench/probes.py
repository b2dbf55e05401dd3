"""Layer probes: single public calls on fixed inputs, timed in a fresh
interpreter without tracing.  The inputs are the so(3) trunc-4 monoid and
its left triple product S o (S (x) I), the objects behind the ROADMAP
baseline table.  Each probe reports the median over a fixed number of calls.

    python3 perfbench/probes.py --result RESULT.json
"""
from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

import symgf
from symgf import (LieStructure, check_groupoid, compose, halton, identity_genfun,
                   lie_monoid, poisson_bivector, sample_ball, sample_box,
                   stationary_point, tensor)


def median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def probes() -> dict:
    S = lie_monoid(LieStructure.so3(), trunc=4)
    inner = tensor(S, identity_genfun(3))
    left = compose(S, inner)
    p = sample_ball(1, 6, 0.05, seed=1)[0]
    p1 = sample_ball(1, 9, 0.05, seed=2)[0]
    x = sample_box(1, 3, -1.0, 1.0, seed=3)[0]
    field = poisson_bivector(S)
    out = {}
    for order, reps in ((0, 41), (1, 31), (2, 21), (3, 11)):
        out[f"probe.poly_jet.o{order}.ms"] = median_ms(lambda: S.eval_jet(p, x, order), reps)
    out["probe.stationary_point.ms"] = median_ms(lambda: stationary_point(S, inner, p1, x), 15)
    out["probe.stationary_point.iters"] = stationary_point(S, inner, p1, x).iterations
    out["probe.composite_value.ms"] = median_ms(lambda: left(p1, x), 9)
    out["probe.composite_jet.o3.ms"] = median_ms(lambda: left.eval_jet(p1, x, 3), 5)
    out["probe.bivector.ms"] = median_ms(lambda: field.matrix(x), 21)
    out["probe.groupoid_point.ms"] = median_ms(
        lambda: check_groupoid(S, p[None, :3], x[None, :], 1e-6), 9)
    out["probe.halton.ms"] = median_ms(lambda: halton(200, 9, seed=0), 15)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    with open(args.result, "w") as fh:
        json.dump({"probes": probes(), "symgf_file": symgf.__file__,
                   "numpy": np.__version__}, fh)


if __name__ == "__main__":
    main()
