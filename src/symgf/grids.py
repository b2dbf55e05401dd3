"""Deterministic low-discrepancy sample grids.

Verification sweeps sample momenta in a ball and base points in a box.  A
hand-rolled scrambled Halton sequence keeps runs byte-reproducible: the
scramble is a per-base digit permutation drawn from ``numpy``'s seeded
generator, with 0 fixed so the radical inverse stays well defined.
"""
from __future__ import annotations

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
           67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
           139, 149, 151, 157, 163, 167, 173)


def _digit_permutations(dims, seed):
    rng = np.random.default_rng(seed)
    perms = []
    for b in _PRIMES[:dims]:
        perm = np.concatenate([[0], 1 + rng.permutation(b - 1)])
        perms.append(perm)
    return perms


def halton(n, dims, seed=0) -> np.ndarray:
    """``n`` scrambled Halton points in [0, 1)^dims.

    Each coordinate runs the radical-inverse digit loop on all points at
    once; a point that has run out of digits adds ``f * perm[0] = 0``, so
    every point sees the same floating-point operations as a scalar loop.
    """
    if dims > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} dimensions supported, got {dims}")
    out = np.empty((n, dims))
    for j, (b, perm) in enumerate(zip(_PRIMES, _digit_permutations(dims, seed))):
        k = np.arange(1, n + 1)
        f = 1.0
        r = np.zeros(n)
        while k.any():
            f /= b
            k, digit = np.divmod(k, b)
            r += f * perm[digit]
        out[:, j] = r
    return out


def sample_box(n, d, lo, hi, seed=0) -> np.ndarray:
    """n deterministic points in the box [lo, hi]^d."""
    return lo + (hi - lo) * halton(n, d, seed=seed)


def sample_ball(n, d, radius, seed=0) -> np.ndarray:
    """n deterministic points in the closed euclidean ball of given radius.

    Directions come from a Halton cube, radii from an extra Halton
    coordinate with the d-th-root volume correction.
    """
    u = halton(n, d + 1, seed=seed)
    v = 2.0 * u[:, :d] - 1.0
    norms = np.linalg.norm(v, axis=1)
    small = norms < 1e-12
    v[small] = 0.0
    v[small, 0] = 1.0
    norms[small] = 1.0
    r = radius * u[:, d] ** (1.0 / d)
    return (r / norms)[:, None] * v
