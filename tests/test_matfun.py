import numpy as np
import pytest

from oracles import mat_exp, mat_log


def _series_exp(A, terms=60):
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


def test_exp_matches_series_small_norm():
    rng = np.random.default_rng(4)
    for _ in range(5):
        A = 0.3 * rng.standard_normal((4, 4))
        np.testing.assert_allclose(mat_exp(A), _series_exp(A), rtol=1e-13, atol=1e-14)


def test_exp_large_norm_additivity():
    # exp(A) = exp(A/2)^2 exercised against the scaling branch
    rng = np.random.default_rng(11)
    A = 3.0 * rng.standard_normal((3, 3))
    E = mat_exp(A)
    H = mat_exp(A / 2)
    np.testing.assert_allclose(E, H @ H, rtol=1e-11, atol=1e-11)


def test_log_inverts_exp():
    rng = np.random.default_rng(7)
    for scale in (0.1, 0.5, 1.2):
        A = scale * rng.standard_normal((3, 3))
        np.testing.assert_allclose(mat_log(mat_exp(A)), A, rtol=1e-10, atol=1e-11)


def test_exp_inverts_log():
    rng = np.random.default_rng(9)
    M = np.eye(4) + 0.4 * rng.standard_normal((4, 4))
    np.testing.assert_allclose(mat_exp(mat_log(M)), M, rtol=1e-11, atol=1e-12)


def test_rotation_closed_form():
    t = 0.73
    A = np.array([[0.0, -t], [t, 0.0]])
    R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    np.testing.assert_allclose(mat_exp(A), R, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(mat_log(R), A, rtol=1e-12, atol=1e-13)


def test_nilpotent_exact():
    N = np.array([[0.0, 2.0, 1.5], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    E = mat_exp(N)
    # exp of a strictly-triangular matrix terminates: I + N + N^2/2
    np.testing.assert_allclose(E, np.eye(3) + N + N @ N / 2, rtol=0, atol=1e-15)
    np.testing.assert_allclose(mat_log(E), N, rtol=0, atol=1e-13)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        mat_exp(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        mat_log(np.zeros((2, 3)))
