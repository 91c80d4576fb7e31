"""Tridiagonal layer: Thomas solves against dense LAPACK and a numpy-scalar
reference, the right-hand sides solved inside the factorization against the
same reference column by column, factor reuse, and zero pivots; cyclic
reduction on M-matrices against dense LAPACK, its singular-pivot test, and
which callers take it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fucik_branch import _tridiag
from fucik_branch._tridiag import CORE, thomas_solve, tridiag_factor
from fucik_branch.config import SolverConfig
from fucik_branch.continuation import BranchSeed, trace_branch
from fucik_branch.grid import Grid, h10_norm
from fucik_branch.monotone import solve_monotone, solve_monotone_ball
from fucik_branch.quasilinear import (ProblemParams, jacobian_transformed,
                                      residual_original, residual_transformed)

from conftest import counting
from test_quasilinear import smooth_field

EPS = np.finfo(float).eps

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
    solve, _ = tridiag_factor(lower, diag, upper)
    for rhs in np.random.default_rng(seed + 1).standard_normal((4, n)):
        assert np.array_equal(solve(rhs), thomas_solve(lower, diag, upper, rhs))


@_PROPERTY
@given(n=st.integers(1, 400), count=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_right_hand_sides_solved_with_the_factor_keep_the_thomas_bits(n, count, seed):
    # two to four of them ride in the factorization's loops, complex-packed
    # beyond two; one, or five, are solved after it
    lower, diag, upper, _ = dominant_system(n, seed)
    rhs = list(np.random.default_rng(seed + 1).standard_normal((count, n)))
    solve, xs = tridiag_factor(lower, diag, upper, rhs)
    assert len(xs) == count
    for b, x in zip(rhs, xs):
        assert x.dtype == float and x.flags.c_contiguous
        assert np.array_equal(x, numpy_scalar_thomas(lower, diag, upper, b))
        assert np.array_equal(solve(b), x)


def test_zero_pivot_raises():
    with pytest.raises(ValueError, match="zero pivot"):
        tridiag_factor(np.zeros(0), np.zeros(1), np.zeros(0))
    # the second pivot is 1 - 1*1/1 = 0
    with pytest.raises(ValueError, match="zero pivot"):
        thomas_solve(np.ones(2), np.ones(3), np.ones(2), np.ones(3))
    for count in (2, 3):
        with pytest.raises(ValueError, match="zero pivot"):
            tridiag_factor(np.ones(2), np.ones(3), np.ones(2), [np.ones(3)] * count)



def m_matrix(n: int, seed: int, spread: float, symmetric: bool):
    """Random tridiagonal M-matrix: off-diagonals -exp(U(-spread, spread)),
    each row weakly diagonally dominant, about one row in five and both end
    rows strictly so (irreducible, hence nonsingular)."""
    rng = np.random.default_rng(seed)
    lower = -np.exp(rng.uniform(-spread, spread, n - 1))
    upper = lower if symmetric else -np.exp(rng.uniform(-spread, spread, n - 1))
    diag = np.where(rng.random(n) < 0.2, np.exp(rng.uniform(-spread, spread, n)), 0.0)
    diag[[0, -1]] += np.exp(rng.uniform(-spread, spread, 2))
    diag[1:] -= lower
    diag[:-1] -= upper
    return lower, diag, upper, rng.standard_normal(n)


def tridiag_apply(lower, diag, upper, x):
    y = diag * x
    y[:-1] += upper * x[1:]
    y[1:] += lower * x[:-1]
    return y


def inf_norm(lower, diag, upper):
    rows = np.abs(diag)
    rows[1:] += np.abs(lower)
    rows[:-1] += np.abs(upper)
    return float(rows.max())


def neumann(n: int):
    # tridiag(-1, 2, -1) with 1 in both corners: singular, null vector of ones
    off = -np.ones(n - 1)
    diag = np.full(n, 2.0)
    diag[[0, -1]] = 1.0
    return off, diag, off


@_PROPERTY
@given(n=st.one_of(st.integers(CORE - 8, 3 * CORE),
                   st.sampled_from([CORE, CORE + 1, 2 * CORE - 1, 2 * CORE + 1,
                                    799, 3199])),
       seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([0.0, 1.0, 3.0]),
       symmetric=st.booleans())
def test_m_matrix_solve_is_backward_stable(n, seed, spread, symmetric):
    lower, diag, upper, rhs = m_matrix(n, seed, spread, symmetric)
    assert _tridiag._is_m_matrix(lower, diag, upper)
    x = tridiag_factor(lower, diag, upper)[0](rhs)
    norm_t, norm_x = inf_norm(lower, diag, upper), np.max(np.abs(x))
    residual = np.max(np.abs(tridiag_apply(lower, diag, upper, x) - rhs))
    assert residual <= 8 * n * EPS * norm_t * norm_x
    if n <= 799:
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        expected = np.linalg.solve(dense, rhs)
        # T^{-1} >= 0 entrywise, so ||T^{-1}||_inf = max(T^{-1} 1)
        cond = norm_t * np.max(np.linalg.solve(dense, np.ones(n)))
        assert np.max(np.abs(x - expected)) <= 16 * n * EPS * cond * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [CORE + 1, 2 * CORE, 2 * CORE + 1, 799])
def test_cyclic_solve_reuses_its_factor_and_keeps_the_rhs(n):
    lower, diag, upper, rhs = m_matrix(n, n, 1.0, False)
    solve, _ = tridiag_factor(lower, diag, upper)
    kept = rhs.copy()
    first = solve(rhs)
    assert np.array_equal(rhs, kept)
    assert np.array_equal(solve(rhs), first)
    assert first.shape == (n,)


@pytest.mark.parametrize("n", [4, CORE, CORE + 1, 2 * CORE + 1, 799])
def test_singular_m_matrix_raises_on_both_paths(n):
    off, diag, _ = neumann(n)
    assert _tridiag._is_m_matrix(off, diag, off)
    with pytest.raises(ValueError):
        tridiag_factor(off, diag, off)


@pytest.mark.parametrize("seed", range(5))
def test_weighted_neumann_raises_on_the_cyclic_path(seed):
    # rows sum to zero up to rounding, so the last pivot is round-off, not 0.0
    w = np.exp(np.random.default_rng(seed).uniform(-3.0, 3.0, 798))
    diag = np.concatenate(([w[0]], w[:-1] + w[1:], [w[-1]]))
    off = -w
    assert _tridiag._is_m_matrix(off, diag, off)
    with pytest.raises(ValueError, match="zero pivot in cyclic reduction"):
        tridiag_factor(off, diag, off)


@pytest.mark.parametrize("n", [CORE, CORE + 1, 399, 799])
@pytest.mark.parametrize("shift", [-50.0, 4.0, 4e4])
def test_shifted_indefinite_systems_keep_the_thomas_bits(n, shift):
    # a Jacobian's shape at lambda = shift: M-matrix only for shift <= 0
    lower, diag, upper, rhs = m_matrix(n, 7, 1.0, True)
    diag = diag * n * n - shift
    lower, upper = lower * n * n, upper * n * n
    x = tridiag_factor(lower, diag, upper)[0](rhs)
    if shift > 0.0:
        assert not _tridiag._is_m_matrix(lower, diag, upper)
        assert np.array_equal(x, numpy_scalar_thomas(lower, diag, upper, rhs))
        # a corrector's right-hand sides: u, -r and the rank-one a
        cols = [rhs, -np.cos(np.arange(n)), np.full(n, 1e-300)]
        for count in (2, 3):
            _, xs = tridiag_factor(lower, diag, upper, cols[:count])
            for b, x in zip(cols, xs):
                assert np.array_equal(x, numpy_scalar_thomas(lower, diag, upper, b))
    assert np.array_equal(thomas_solve(lower, diag, upper, rhs),
                          numpy_scalar_thomas(lower, diag, upper, rhs))


@pytest.mark.parametrize("n", [CORE, 399])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_rank_one_solves_keep_the_thomas_bits(n, count):
    # a p = 1.5 trace Jacobian: Sherman-Morrison on numpy_scalar_thomas solves
    grid = Grid(n_interior=n)
    rng = np.random.default_rng(n + count)
    v = smooth_field(grid, rng)
    v = (0.5 / h10_norm(v)) * v
    jac = jacobian_transformed(v, ProblemParams(p=1.5, gamma=0.5, lam=4.0))
    a, b = jac.rank_one
    rhs = list(rng.standard_normal((count, n)))
    solve, xs = jac.factor(*rhs)

    def reference(q):
        t1 = numpy_scalar_thomas(jac.off, jac.diag, jac.off, q)
        t2 = numpy_scalar_thomas(jac.off, jac.diag, jac.off, a)
        denom = 1.0 + grid.h * float(np.dot(b, t2))
        return t1 - t2 * (grid.h * float(np.dot(b, t1)) / denom)

    assert len(xs) == count
    for q, x in zip(rhs, xs):
        assert np.array_equal(x, reference(q))
        assert np.array_equal(solve(q), x)


def test_dominant_systems_with_a_positive_off_diagonal_keep_the_thomas_bits():
    lower, diag, upper, rhs = m_matrix(799, 3, 1.0, False)
    upper = upper.copy()
    upper[400] = -upper[400]
    assert not _tridiag._is_m_matrix(lower, diag, upper)
    assert np.array_equal(tridiag_factor(lower, diag, upper)[0](rhs),
                          numpy_scalar_thomas(lower, diag, upper, rhs))


def test_dominance_test_allows_a_few_ulps():
    lower, diag, upper, _ = m_matrix(799, 11, 0.0, True)
    rows = diag + np.concatenate(([0.0], lower)) + np.concatenate((upper, [0.0]))
    weak = diag - rows  # exactly dominant up to the rounding of this difference
    assert _tridiag._is_m_matrix(lower, weak * (1.0 - 4 * EPS), upper)
    assert not _tridiag._is_m_matrix(lower, weak * (1.0 - 1e-12), upper)
    for row in (0, 10, 399, 798):  # one row short, the middle one or another
        short = weak.copy()
        short[row] *= 1.0 - 1e-12
        assert not _tridiag._is_m_matrix(lower, short, upper)
    assert not _tridiag._is_m_matrix(lower, np.where(diag > 0, np.nan, diag), upper)


def test_which_callers_take_cyclic_reduction(monkeypatch):
    counts = {"cyclic": 0}
    monkeypatch.setattr(_tridiag, "_cyclic_factor",
                        counting(counts, "cyclic", _tridiag._cyclic_factor))
    assert Grid().n_interior > CORE
    for p in (3.0, 1.5):
        branch = trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=p),
                              Grid(), SolverConfig(max_steps=8))
        assert len(branch.points) >= 2
    assert counts["cyclic"] == 0

    grid = Grid(n_interior=799)
    rng = np.random.default_rng(3)
    p3 = ProblemParams(p=3.0, gamma=0.5, lam=0.0)
    u_star = smooth_field(grid, rng)
    report = solve_monotone(residual_original(u_star, p3), p3)
    assert h10_norm(report.solution - u_star) <= 1e-7
    after_p3 = counts["cyclic"]
    assert after_p3 > 0

    p15 = ProblemParams(p=1.5, gamma=0.5, lam=0.0)
    v_star = smooth_field(grid, rng)
    v_star = (0.2 / h10_norm(v_star)) * v_star
    report = solve_monotone_ball(residual_transformed(v_star, p15), p15, radius=0.5)
    assert h10_norm(report.solution - v_star) <= 1e-7
    assert counts["cyclic"] > after_p3
