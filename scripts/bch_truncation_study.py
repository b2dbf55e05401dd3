#!/usr/bin/env python3
"""Associativity defect of truncated Lie group laws vs momentum scale.

For each truncation order the defect of the triple product is measured on a
momentum ball of radius r and again at r/2; the ratio exposes the order of
the truncation error (a clean power of two when the defect is dominated by
the first dropped commutator order).
"""
import argparse

import numpy as np

from symgf import check_associativity, lie_monoid, sample_ball, sample_box
from symgf.cli import STRUCTURES
from symgf.serialize import load_structure


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lie", default="so3",
                    help=f"{', '.join(STRUCTURES)}, or a JSON path")
    ap.add_argument("--radius", type=float, default=0.1)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--truncs", default="1,2,3,4")
    args = ap.parse_args()

    st = STRUCTURES[args.lie]() if args.lie in STRUCTURES else load_structure(args.lie)
    d = st.d
    xs = sample_box(args.n, d, -1.0, 1.0, args.seed + 1)

    print(f"structure: {st.name} (d={d}), momentum radius {args.radius}, n={args.n}")
    print(f"{'trunc':>5s} {'max defect':>14s} {'max at r/2':>14s} {'ratio':>10s}")
    for trunc in (int(t) for t in args.truncs.split(",")):
        S = lie_monoid(st, trunc=trunc)
        rows = []
        for scale in (1.0, 0.5):
            ps = sample_ball(args.n, 3 * d, scale * args.radius, args.seed)
            rep = check_associativity(S, ps, xs, tol=np.inf)
            rows.append(rep.max_residual)
        ratio = rows[0] / rows[1] if rows[1] > 0 else float("nan")
        print(f"{trunc:>5d} {rows[0]:>14.6e} {rows[1]:>14.6e} {ratio:>10.3f}")


if __name__ == "__main__":
    main()
