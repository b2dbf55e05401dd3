#!/usr/bin/env python3
"""Run the full verification battery over the built-in monoid families."""
import argparse
import shlex

from symgf.cli import main as cli_main


PRESETS = [
    "verify --builtin symplectic --d 2",
    "verify --builtin symplectic --d 4",
    "verify --builtin identity --d 2",
    "verify --builtin lie --lie heisenberg --trunc 2",
    ("verify --builtin lie --lie so3 --trunc 4 --p-radius 0.05 "
     "--tol associativity=1e-6 --tol source-poisson=1e-6 "
     "--tol target-anti-poisson=1e-6 --tol source-target-commute=1e-6"),
    ("verify --builtin kontsevich --alpha so3 --eps 0.05 --order 2 "
     "--p-radius 0.05 --tol associativity=1e-6 --tol source-poisson=1e-5 "
     "--tol target-anti-poisson=1e-5 --tol source-target-commute=1e-5"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid-n", type=int, default=100, dest="grid_n")
    args = ap.parse_args()

    failures = 0
    for preset in PRESETS:
        argv = shlex.split(preset) + ["--grid-n", str(args.grid_n)]
        print("=" * 72)
        print("symgf", " ".join(argv))
        code = cli_main(argv)
        if code != 0:
            failures += 1
    print("=" * 72)
    print(f"{len(PRESETS) - failures}/{len(PRESETS)} presets passed")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
