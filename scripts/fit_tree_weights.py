#!/usr/bin/env python3
"""Fit the order-2 weights of the semiclassical monoid from associativity.

The defect of the triple product at order 2 is affine in the two tree
weights.  Its columns are closed-form: the coboundaries of the two tree
symbols at each sample.  Its constant term is closed-form too: the eps^2
coefficient of the weight-free monoid's defect, the second variation of
each triple product's stationary value, so the fit makes no Newton solve.
A least-squares solve yields the weights.  Prints the fitted weights and
the residual floor of the fit.
"""
import argparse

from symgf.monoids import fit_tree_weights


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--n-points", type=int, default=24, dest="n_points")
    args = ap.parse_args()

    fit = fit_tree_weights(seed=args.seed, n_points=args.n_points)
    print(f"c1 = {fit.c1:+.12f}")
    print(f"c2 = {fit.c2:+.12f}")
    print(f"residual floor = {fit.floor:.3e}  over {fit.n_rows} fit rows")
    print(f"gate: {'pass' if fit.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
