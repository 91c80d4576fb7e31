"""Tridiagonal layer: Thomas solves against dense LAPACK and a numpy-scalar
reference, the right-hand sides solved inside the factorization against the
same reference column by column, factor reuse, and zero pivots; cyclic
reduction on M-matrices and on shifted, indefinite systems against dense
LAPACK, its singular-pivot test, and which callers take it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fucik_branch import _tridiag
from fucik_branch._tridiag import CORE, thomas_solve, tridiag_factor
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
    """Random symmetric tridiagonal system with |diag| >= 2 |off| + 1."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(3.0, 5.0, n) * rng.choice((-1.0, 1.0), n)
    return off, diag, rng.standard_normal(n)


def dense(off, diag):
    return np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)


def numpy_scalar_thomas(off, diag, rhs):
    # the elimination indexed over numpy scalars, in the same operation order
    n = diag.size
    cp = np.empty(n)
    dp = np.empty(n)
    piv = diag[0]
    cp[0] = off[0] / piv if n > 1 else 0.0
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - off[i - 1] * cp[i - 1]
        if i < n - 1:
            cp[i] = off[i] / piv
        dp[i] = (rhs[i] - off[i - 1] * dp[i - 1]) / piv
    x = np.empty(n)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


@_PROPERTY
@given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_thomas_matches_dense_solve(n, seed):
    off, diag, rhs = dominant_system(n, seed)
    expected = np.linalg.solve(dense(off, diag), rhs)
    x = thomas_solve(off, diag, rhs)
    assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(x, numpy_scalar_thomas(off, diag, rhs))


@_PROPERTY
@given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_reused_factor_is_bit_identical_to_fresh_solves(n, seed):
    off, diag, _ = dominant_system(n, seed)
    solve, _ = tridiag_factor(off, diag)
    for rhs in np.random.default_rng(seed + 1).standard_normal((4, n)):
        assert np.array_equal(solve(rhs), thomas_solve(off, diag, rhs))


@_PROPERTY
@given(n=st.integers(1, 400), count=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_right_hand_sides_solved_with_the_factor_keep_the_thomas_bits(n, count, seed):
    # two to four of them ride in the factorization's loops, complex-packed
    # beyond two; one, or five, are solved after it
    off, diag, _ = dominant_system(n, seed)
    rhs = list(np.random.default_rng(seed + 1).standard_normal((count, n)))
    solve, xs = tridiag_factor(off, diag, rhs)
    assert len(xs) == count
    for b, x in zip(rhs, xs):
        assert x.dtype == float and x.flags.c_contiguous
        assert np.array_equal(x, numpy_scalar_thomas(off, diag, b))
        assert np.array_equal(solve(b), x)


def test_zero_pivot_raises():
    with pytest.raises(ValueError, match="zero pivot"):
        tridiag_factor(np.zeros(0), np.zeros(1))
    # the second pivot is 1 - 1*1/1 = 0
    with pytest.raises(ValueError, match="zero pivot"):
        thomas_solve(np.ones(2), np.ones(3), np.ones(3))
    for count in (2, 3):
        with pytest.raises(ValueError, match="zero pivot"):
            tridiag_factor(np.ones(2), np.ones(3), [np.ones(3)] * count)
    # pivots 1 and 2 - 1*1/1 = 1, then the last one 1 - 1*1/1 = 0
    with pytest.raises(ValueError, match="zero pivot"):
        tridiag_factor(np.ones(2), np.array([1.0, 2.0, 1.0]))


def m_matrix(n: int, seed: int, spread: float):
    """Random symmetric tridiagonal M-matrix: off-diagonal
    -exp(U(-spread, spread)), each row weakly diagonally dominant, about one
    row in five and both end rows strictly so (irreducible, hence
    nonsingular)."""
    rng = np.random.default_rng(seed)
    off = -np.exp(rng.uniform(-spread, spread, n - 1))
    diag = np.where(rng.random(n) < 0.2, np.exp(rng.uniform(-spread, spread, n)), 0.0)
    diag[[0, -1]] += np.exp(rng.uniform(-spread, spread, 2))
    diag[1:] -= off
    diag[:-1] -= off
    return off, diag, rng.standard_normal(n)


def tridiag_apply(off, diag, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def inf_norm(off, diag):
    rows = np.abs(diag)
    rows[1:] += np.abs(off)
    rows[:-1] += np.abs(off)
    return float(rows.max())


def assert_backward_stable(off, diag, rhs, xs):
    """Each x solves T x = b with a residual within 8 n eps ||T|| ||x||, and
    lies within the reach of T's condition number of the dense LAPACK solve."""
    n = diag.size
    t = dense(off, diag)
    norm_t = inf_norm(off, diag)
    cond = norm_t * np.linalg.norm(np.linalg.inv(t), np.inf)
    for b, x in zip(rhs, xs, strict=True):
        residual = np.max(np.abs(tridiag_apply(off, diag, x) - b))
        assert residual <= 8 * n * EPS * norm_t * np.max(np.abs(x))
        expected = np.linalg.solve(t, b)
        assert np.max(np.abs(x - expected)) <= 16 * n * EPS * cond * np.max(np.abs(expected))


def shifted_system(n: int, shift: float):
    """A Jacobian's shape at lambda = shift: M-matrix only for shift <= 0."""
    off, diag, rhs = m_matrix(n, 7, 1.0)
    return off * n * n, diag * n * n - shift, rhs


def neumann(n: int):
    # tridiag(-1, 2, -1) with 1 in both corners: singular, null vector of ones
    diag = np.full(n, 2.0)
    diag[[0, -1]] = 1.0
    return -np.ones(n - 1), diag


@_PROPERTY
@given(n=st.one_of(st.integers(CORE - 8, 3 * CORE),
                   st.sampled_from([CORE, CORE + 1, 2 * CORE - 1, 2 * CORE + 1,
                                    799, 3199])),
       seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([0.0, 1.0, 3.0]))
def test_m_matrix_solve_is_backward_stable(n, seed, spread):
    off, diag, rhs = m_matrix(n, seed, spread)
    assert _tridiag._is_m_matrix(off, diag)
    x = tridiag_factor(off, diag)[0](rhs)
    norm_t, norm_x = inf_norm(off, diag), np.max(np.abs(x))
    residual = np.max(np.abs(tridiag_apply(off, diag, x) - rhs))
    assert residual <= 8 * n * EPS * norm_t * norm_x
    if n <= 799:
        t = dense(off, diag)
        expected = np.linalg.solve(t, rhs)
        # T^{-1} >= 0 entrywise, so ||T^{-1}||_inf = max(T^{-1} 1)
        cond = norm_t * np.max(np.linalg.solve(t, np.ones(n)))
        assert np.max(np.abs(x - expected)) <= 16 * n * EPS * cond * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [CORE + 1, 2 * CORE, 2 * CORE + 1, 2 * CORE + 2, 799])
def test_cyclic_solve_reuses_its_factor_and_keeps_the_rhs(n):
    off, diag, rhs = m_matrix(n, n, 1.0)
    solve, _ = tridiag_factor(off, diag)
    kept = rhs.copy()
    first = solve(rhs)
    assert np.array_equal(rhs, kept)
    assert np.array_equal(solve(rhs), first)
    assert first.shape == (n,)


@pytest.mark.parametrize("n", [4, CORE, CORE + 1, 2 * CORE + 1, 2 * CORE + 2, 799])
def test_singular_m_matrix_raises_on_both_paths(n):
    off, diag = neumann(n)
    assert _tridiag._is_m_matrix(off, diag)
    with pytest.raises(ValueError):
        tridiag_factor(off, diag)


@pytest.mark.parametrize("seed", range(5))
def test_weighted_neumann_raises_on_the_cyclic_path(seed):
    # rows sum to zero up to rounding, so the last pivot is round-off, not 0.0
    w = np.exp(np.random.default_rng(seed).uniform(-3.0, 3.0, 798))
    diag = np.concatenate(([w[0]], w[:-1] + w[1:], [w[-1]]))
    off = -w
    assert _tridiag._is_m_matrix(off, diag)
    with pytest.raises(ValueError, match="zero pivot in cyclic reduction"):
        tridiag_factor(off, diag)


@pytest.mark.parametrize("n", [CORE, CORE + 1, 399, 799])
@pytest.mark.parametrize("shift", [-50.0, 4.0, 4e4])
def test_shifted_indefinite_systems_keep_the_thomas_bits(n, shift):
    # thomas_solve keeps the loop's bits at every size; tridiag_factor keeps
    # them up to 2 CORE + 1 unknowns and is backward stable beyond, where it
    # reduces cyclically, whether the system is an M-matrix or not
    off, diag, rhs = shifted_system(n, shift)
    assert _tridiag._is_m_matrix(off, diag) is (shift <= 0.0)
    # a corrector's right-hand sides: u, -r and the rank-one a
    cols = [rhs, -np.cos(np.arange(n)), np.full(n, 1e-300)]
    for count in (1, 2, 3):
        solve, xs = tridiag_factor(off, diag, cols[:count])
        if n <= 2 * CORE + 1:
            for b, x in zip(cols, xs):
                assert np.array_equal(x, numpy_scalar_thomas(off, diag, b))
        else:
            assert_backward_stable(off, diag, cols[:count], xs)
        assert np.array_equal(solve(rhs), xs[0])
    assert np.array_equal(thomas_solve(off, diag, rhs),
                          numpy_scalar_thomas(off, diag, rhs))


@pytest.mark.parametrize("n", [399, 799])
@pytest.mark.parametrize("ulps", [-3, 2])
def test_shifts_a_few_ulps_from_an_eigenvalue_are_solved_backward_stably(n, ulps):
    # numerically singular, yet solved: the reduction stops before a level
    # whose pivots are unsafe, and no core pivot falls to 4 n eps |diag_j|
    off, diag, rhs = shifted_system(n, 0.0)
    eigenvalues = np.linalg.eigvalsh(dense(off, diag))
    for j in (0, 1, 5, n // 2, n - 1):
        shifted = diag - eigenvalues[j] * (1.0 + ulps * EPS)
        assert_backward_stable(off, shifted, [rhs], [tridiag_factor(off, shifted)[0](rhs)])


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
        t1 = numpy_scalar_thomas(jac.off, jac.diag, q)
        t2 = numpy_scalar_thomas(jac.off, jac.diag, a)
        denom = 1.0 + grid.h * float(np.dot(b, t2))
        return t1 - t2 * (grid.h * float(np.dot(b, t1)) / denom)

    assert len(xs) == count
    for q, x in zip(rhs, xs):
        assert np.array_equal(x, reference(q))
        assert np.array_equal(solve(q), x)


def test_dominant_systems_with_a_positive_off_diagonal_keep_the_thomas_bits():
    # not an M-matrix: tridiag_factor reduces it cyclically all the same
    off, diag, rhs = m_matrix(799, 3, 1.0)
    off = off.copy()
    off[400] = -off[400]
    assert not _tridiag._is_m_matrix(off, diag)
    assert_backward_stable(off, diag, [rhs], [tridiag_factor(off, diag)[0](rhs)])
    assert np.array_equal(thomas_solve(off, diag, rhs),
                          numpy_scalar_thomas(off, diag, rhs))


def test_dominance_test_allows_a_few_ulps():
    off, diag, _ = m_matrix(799, 11, 0.0)
    rows = diag + np.concatenate(([0.0], off)) + np.concatenate((off, [0.0]))
    weak = diag - rows  # exactly dominant up to the rounding of this difference
    assert _tridiag._is_m_matrix(off, weak * (1.0 - 4 * EPS))
    assert not _tridiag._is_m_matrix(off, weak * (1.0 - 1e-12))
    for row in (0, 10, 399, 798):  # one row short, the middle one or another
        short = weak.copy()
        short[row] *= 1.0 - 1e-12
        assert not _tridiag._is_m_matrix(off, short)
    assert not _tridiag._is_m_matrix(off, np.where(diag > 0, np.nan, diag))


def test_which_callers_take_cyclic_reduction(monkeypatch):
    counts = {"cyclic": 0}
    monkeypatch.setattr(_tridiag, "_cyclic_factor",
                        counting(counts, "cyclic", _tridiag._cyclic_factor))
    # the p = 3 trace's indefinite Jacobians take it; the p = 1.5 trace's
    # rank-one Jacobians keep the Thomas loop (Jacobian.factor)
    grid = Grid(n_interior=399)
    assert grid.n_interior > 2 * CORE + 1
    for p, cyclic in ((3.0, True), (1.5, False)):
        counts["cyclic"] = 0
        branch = trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=p),
                              grid, 8)
        assert len(branch.points) == 8
        assert (counts["cyclic"] > 0) is cyclic

    counts["cyclic"] = 0
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


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_manufactured_monotone_solves_at_3199(p, monkeypatch):
    # five levels of cyclic reduction: 3199 -> 1599 -> 799 -> 399 -> 199 -> 99
    counts = {"cyclic": 0}
    monkeypatch.setattr(_tridiag, "_cyclic_factor",
                        counting(counts, "cyclic", _tridiag._cyclic_factor))
    grid = Grid(n_interior=3199)
    params = ProblemParams(p=p, gamma=0.5, lam=0.0)
    u_star = smooth_field(grid, np.random.default_rng(3))
    if p > 2.0:
        report = solve_monotone(residual_original(u_star, params), params)
    else:
        u_star = (0.2 / h10_norm(u_star)) * u_star
        report = solve_monotone_ball(residual_transformed(u_star, params), params,
                                     radius=0.5)
    assert h10_norm(report.solution - u_star) <= 1e-7
    assert counts["cyclic"] > 0
