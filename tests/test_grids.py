import subprocess
import sys

import numpy as np
import pytest

from symgf import halton, sample_ball, sample_box
from symgf.grids import _PRIMES, _digit_permutations


def _scalar_halton(n, dims, seed):
    # the per-point, per-digit radical inverse that halton computes array-wise
    out = np.empty((n, dims))
    for j, (b, perm) in enumerate(zip(_PRIMES, _digit_permutations(dims, seed))):
        for i in range(n):
            k, f, r = i + 1, 1.0, 0.0
            while k > 0:
                f /= b
                k, digit = divmod(k, b)
                r += f * perm[digit]
            out[i, j] = r
    return out


@pytest.mark.parametrize("n,dims", [(0, 3), (1, 1), (32, 3), (24, 9), (128, 9), (1000, 40)])
def test_halton_matches_scalar_digit_loop_bitwise(n, dims):
    for seed in (0, 7):
        got = halton(n, dims, seed=seed)
        want = _scalar_halton(n, dims, seed)
        assert got.shape == (n, dims)
        assert got.tobytes() == want.tobytes()


def test_halton_rejects_too_many_dimensions():
    with pytest.raises(ValueError):
        halton(4, len(_PRIMES) + 1)


def test_sample_box_refuses_non_finite_points():
    # hi - lo overflows to inf
    with pytest.raises(ValueError, match=r"the box \[-1e\+308, 1e\+308\]\^2 is too wide"):
        sample_box(4, 2, -1e308, 1e308)


def test_sample_ball_refuses_non_finite_points():
    # radius / norm overflows, and inf * 0 makes NaN; neither warns
    with pytest.raises(ValueError, match=r"the ball of radius 1e\+308 is too large"):
        sample_ball(3, 2, 1e308)


def _numpy_digit_permutations(dims, seed):
    # the scramble as NumPy's Generator draws it, the oracle for symgf's own stream
    rng = np.random.default_rng(seed)
    return [np.concatenate([[0], 1 + rng.permutation(b - 1)]) for b in _PRIMES[:dims]]


@pytest.mark.parametrize("seeds", [
    range(600),
    [2**32, 2**32 + 5, 2**64 - 1, 2**96 + 1],
    [2**128, 2**128 + 7, 2**160, 3**101],
    [np.int64(7), np.uint32(9), np.int32(123), np.uint64(2**63 + 5)],
], ids=["0-599", "ge-2^32", "ge-2^128", "numpy-ints"])
def test_scramble_matches_numpy_generator_at_every_base(seeds):
    for seed in seeds:
        for got, want in zip(_digit_permutations(len(_PRIMES), seed),
                             _numpy_digit_permutations(len(_PRIMES), seed), strict=True):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), (seed, len(got))


@pytest.mark.parametrize("seed, perms", [
    (0, [[0, 1], [0, 1, 2], [0, 3, 1, 2, 4], [0, 6, 4, 3, 5, 2, 1],
         [0, 3, 10, 4, 7, 1, 5, 8, 6, 2, 9], [0, 6, 5, 12, 1, 11, 3, 9, 2, 7, 8, 10, 4]]),
    (2**128 + 7, [[0, 1], [0, 2, 1], [0, 4, 3, 1, 2], [0, 5, 6, 4, 2, 3, 1],
                  [0, 6, 4, 10, 2, 3, 1, 8, 9, 7, 5], [0, 9, 5, 3, 6, 12, 10, 11, 7, 8, 2, 4, 1]]),
])
def test_scramble_is_frozen(seed, perms):
    # literals, so the grid contract holds whatever NumPy's Generator does
    assert [p.tolist() for p in _digit_permutations(6, seed)] == perms


@pytest.mark.parametrize("seed, error, text", [
    (-1, ValueError, "expected non-negative integer"),
    (None, TypeError, "NoneType"),
    (1.0, TypeError, "float"),
    ("3", TypeError, "str"),
])
def test_halton_rejects_seeds_that_are_not_non_negative_integers(seed, error, text):
    with pytest.raises(error, match=text):
        halton(4, 2, seed=seed)


def test_cli_verify_never_imports_numpy_random():
    # the scramble is symgf's own stream: no verify pays for numpy.random's
    # extension modules, hashlib and OpenSSL
    code = """if True:
        import sys
        from symgf import cli
        for argv in (["--builtin", "symplectic"], ["--builtin", "identity"],
                     ["--builtin", "lie"], ["--builtin", "kontsevich", "--alpha", "so3"]):
            # truncated builtins may miss the default tolerances: a verdict, not an error
            assert cli.main(["verify", "--grid-n", "4"] + argv) in (0, 1)
        print("numpy.random" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
