import numpy as np
import pytest

from symgf import halton
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
