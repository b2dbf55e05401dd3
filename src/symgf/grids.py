"""Deterministic low-discrepancy sample grids.

Verification sweeps sample momenta in a ball and base points in a box.  A
hand-rolled scrambled Halton sequence keeps runs byte-reproducible: the
scramble is a per-base digit permutation, with 0 fixed so the radical
inverse stays well defined.  It is drawn from symgf's own PCG64 stream
(O'Neill 2014) and equals NumPy's ``default_rng(seed).permutation`` bit for
bit, so grids depend on no version of NumPy's ``Generator``.
"""
from __future__ import annotations

import operator

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
           67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
           139, 149, 151, 157, 163, 167, 173)

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h, mult):
    """``SeedSequence``'s word hash, whose multiplier steps on every call."""
    def hashmix(v):
        nonlocal h
        v, h = v ^ h, h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


def _seed_words(seed) -> list:
    """``SeedSequence(seed).generate_state(8)``: the seed's 32-bit words, low
    first, hashed into a pool of 4 and cross-mixed, then 8 words drawn from it."""
    n = operator.index(seed)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    # each pool word, then each further seed word, into every other pool word
    for src in range(max(4, len(words))):
        for dst in range(4):
            if src != dst:
                y = hashmix(pool[src] if src < 4 else words[src])
                r = (0xCA01F9DD * pool[dst] - 0x4973F715 * y) & _M32
                pool[dst] = r ^ r >> 16
    return list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))


def _pcg64_uint32(w):
    """``next_uint32`` of ``PCG64`` seeded with the words ``w``: each 64-bit
    XSL-RR output serves two draws, low half first."""
    s0, s1, i0, i1 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = (inc + (s0 << 64 | s1)) * _PCG_MULT + inc & _M128
    while True:
        state = state * _PCG_MULT + inc & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        yield x & _M32
        yield x >> 32


def _digit_permutations(dims, seed):
    """Per base b, 0 then 1 + ``Generator.permutation(b - 1)``: Fisher-Yates
    from the top, each index drawn by masked rejection (``random_interval``)."""
    draw = _pcg64_uint32(_seed_words(seed)).__next__
    perms = []
    for b in _PRIMES[:dims]:
        perm = list(range(1, b))
        for i in range(b - 2, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := draw() & mask) > i:
                pass
            perm[i], perm[j] = perm[j], perm[i]
        perms.append(np.array([0] + perm, dtype=np.int64))
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
    with np.errstate(over="ignore", invalid="ignore"):
        pts = lo + (hi - lo) * halton(n, d, seed=seed)
    if not np.isfinite(pts).all():
        raise ValueError(f"the box [{lo:g}, {hi:g}]^{d} is too wide for finite sample points")
    return pts


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
    with np.errstate(over="ignore", invalid="ignore"):
        r = radius * u[:, d] ** (1.0 / d)
        pts = (r / norms)[:, None] * v
    if not np.isfinite(pts).all():
        raise ValueError(f"the ball of radius {radius:g} is too large for finite sample points")
    return pts
