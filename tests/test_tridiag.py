"""Tridiagonal layer: Thomas solves against dense LAPACK and a numpy-scalar
reference, factor reuse, and zero pivots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fucik_branch._tridiag import thomas_solve, tridiag_factor

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


def dominant_system(n: int, seed: int):
    """Random tridiagonal system with |diag| >= |lower| + |upper| + 1."""
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(3.0, 5.0, n) * rng.choice((-1.0, 1.0), n)
    return lower, diag, upper, rng.standard_normal(n)


def numpy_scalar_thomas(lower, diag, upper, rhs):
    # the elimination indexed over numpy scalars, in the same operation order
    n = diag.size
    cp = np.empty(n)
    dp = np.empty(n)
    piv = diag[0]
    cp[0] = upper[0] / piv if n > 1 else 0.0
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i - 1] * cp[i - 1]
        if i < n - 1:
            cp[i] = upper[i] / piv
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / piv
    x = np.empty(n)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


@_PROPERTY
@given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_thomas_matches_dense_solve(n, seed):
    lower, diag, upper, rhs = dominant_system(n, seed)
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    expected = np.linalg.solve(dense, rhs)
    x = thomas_solve(lower, diag, upper, rhs)
    assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(x, numpy_scalar_thomas(lower, diag, upper, rhs))


@_PROPERTY
@given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_reused_factor_is_bit_identical_to_fresh_solves(n, seed):
    lower, diag, upper, _ = dominant_system(n, seed)
    solve = tridiag_factor(lower, diag, upper)
    for rhs in np.random.default_rng(seed + 1).standard_normal((4, n)):
        assert np.array_equal(solve(rhs), thomas_solve(lower, diag, upper, rhs))


def test_zero_pivot_raises():
    with pytest.raises(ValueError, match="zero pivot"):
        tridiag_factor(np.zeros(0), np.zeros(1), np.zeros(0))
    # the second pivot is 1 - 1*1/1 = 0
    with pytest.raises(ValueError, match="zero pivot"):
        thomas_solve(np.ones(2), np.ones(3), np.ones(2), np.ones(3))

