"""Workload definitions shared by run.py, its child process (child.py)
and the reference generator.

A workload run is one complete, user-visible verification: the ``symgf
verify`` CLI for the two monoid presets, and a library script of the four
axiom checks for the coordinate-change composite.  Grid sizes are fixed
here, so every run of a workload does the same amount of work.
"""
from __future__ import annotations

# Sample grids with a reference recorded in reference.json.  Benchmark seed
# n selects pool entry n % POOL; entry i uses grid seeds 5i .. 5i + 4 (the
# CLI derives its five grids from --seed .. --seed + 4), so no two entries
# share a Halton scramble.
POOL = 64

# Shared by every workload: one report per axiom, one operation per
# (axiom, sample point).
AXIOMS = ("unit", "associativity", "source-poisson", "target-anti-poisson",
          "source-target-commute", "jacobi")

# Per-point sample sets fed to check_unit, check_associativity,
# check_groupoid and check_jacobi.
CHECKS_PER_POINT = 4

LIE_TOLS = ["--tol", "associativity=1e-6", "--tol", "source-poisson=1e-6",
            "--tol", "target-anti-poisson=1e-6", "--tol", "source-target-commute=1e-6"]
KONTSEVICH_TOLS = ["--tol", "associativity=1e-6", "--tol", "source-poisson=1e-5",
                   "--tol", "target-anti-poisson=1e-5", "--tol", "source-target-commute=1e-5"]

WORKLOADS = {
    # ROADMAP headline: a 54-term polynomial in 9 variables, so the jet
    # kernel is at its heaviest and Newton (one iteration per solve) at its
    # lightest.
    "lie-so3-verify": {
        "kind": "cli",
        "grid_n": 8,
        "argv": ["verify", "--builtin", "lie", "--lie", "so3", "--trunc", "4",
                 "--p-radius", "0.05"] + LIE_TOLS,
    },
    # The only workload whose set-up does real work: the order-2 gate fit
    # (2304 Newton solves on small monoids) runs in every fresh process.
    "kontsevich-o2-verify": {
        "kind": "cli",
        # about 20 s of checks after the fit: its points_per_s has only this
        # one window per invocation, and shorter windows catch the shared
        # host's speed spells (README, Noise)
        "grid_n": 128,
        "argv": ["verify", "--builtin", "kontsevich", "--alpha", "so3", "--eps", "0.05",
                 "--order", "2", "--p-radius", "0.05"] + KONTSEVICH_TOLS,
    },
    # Tiny polynomials, composites nested three deep, InverseMap jets: per-call
    # overhead and the Newton solver dominate instead of the jet kernel.
    "coord-change-checks": {
        "kind": "library",
        "grid_n": 3,
        "p_radius": 0.05,
        "y_box": 0.25,
        # acceptance criterion 6: y = g(x), a quadratic near-identity map
        "g": [{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}],
        "tols": {"unit": 1e-10, "associativity": 1e-9, "groupoid": 1e-9,
                 "jacobi": 1e-10},
    },
}


def grid_seed(seed: int) -> int:
    """First grid seed of the pool entry that benchmark seed ``seed`` selects."""
    return 5 * (seed % POOL)


def operations(name: str) -> int:
    """Operations one run of workload ``name`` attempts."""
    return len(AXIOMS) * WORKLOADS[name]["grid_n"]


def points(name: str) -> int:
    """Sample points one run of workload ``name`` checks, over all checks."""
    return CHECKS_PER_POINT * WORKLOADS[name]["grid_n"]
