"""Half-eigenvalues of -u'' - gamma*u^- = lambda*u and Fucik curve sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fucik_branch import halfeig
from fucik_branch.grid import Grid, inner_l2, l2_norm
from fucik_branch.halfeig import (
    FucikPoint,
    fucik_curve_points,
    gamma_window,
    half_eigen_residual,
    shoot_split_lambda,
    split_eigenvalues,
)
from fucik_branch.spectrum import closed_form_eigenvalue, eigenpair

from conftest import reference_half_eigen, reference_shot


def two_hump_lambda1(gamma: float) -> float:
    """Root of 1/sqrt(lam) + 1/sqrt(lam-gamma) = 1 by bisection (oracle)."""

    def f(lam: float) -> float:
        return 1.0 / math.sqrt(lam) + 1.0 / math.sqrt(lam - gamma) - 1.0

    lo, hi = gamma + 1.0 + 1e-9, 100.0
    assert f(lo) > 0.0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_gamma_window_k2(grid):
    win = gamma_window(grid, 2)
    assert win.k == 2
    assert abs(win.gamma_max - 3.0) <= 5e-3


def test_gamma_window_k3(grid):
    assert abs(gamma_window(grid, 3).gamma_max - 5.0) <= 2e-2


def test_gamma_window_refines_toward_continuum():
    coarse = abs(gamma_window(Grid(n_interior=99), 2).gamma_max - 3.0)
    fine = abs(gamma_window(Grid(n_interior=199), 2).gamma_max - 3.0)
    assert fine < coarse


def test_gamma_window_positive(grid):
    for k in range(2, 12):
        assert gamma_window(grid, k).gamma_max > 0.0


def test_gamma_window_needs_k_at_least_2(grid):
    with pytest.raises(ValueError):
        gamma_window(grid, 1)


def test_fucik_shoot_diagonal():
    for k in (1, 2, 3, 5):
        lam = float(k * k)
        end, n_plus, n_minus = halfeig._shoot(lam, lam, math.pi)
        assert abs(end) <= 1e-12
        assert n_plus + n_minus == k
        assert abs(n_plus - n_minus) <= 1


def test_fucik_shoot_first_curve_is_horizontal():
    # a positive solution never activates the negative part
    for lam_minus in (0.3, 2.0, 17.0):
        end, n_plus, n_minus = halfeig._shoot(1.0, lam_minus, math.pi)
        assert abs(end) <= 1e-12
        assert (n_plus, n_minus) == (1, 0)


def test_fucik_shoot_two_hump_curve():
    # one positive and one negative hump: arc widths must fill the interval
    for lam_plus in (5.0, 7.5, 12.0):
        lam_minus = (1.0 - 1.0 / math.sqrt(lam_plus)) ** -2
        end, n_plus, n_minus = halfeig._shoot(lam_plus, lam_minus, math.pi)
        assert abs(end) <= 1e-10
        assert (n_plus, n_minus) == (1, 1)


def test_fucik_shoot_rejects_nonpositive():
    with pytest.raises(ValueError):
        halfeig._shoot(0.0, 1.0, math.pi)
    with pytest.raises(ValueError):
        halfeig._shoot(1.0, -2.0, math.pi)


def test_split_degenerates_at_gamma_zero(grid):
    for k in (1, 2, 3):
        pair = split_eigenvalues(grid, k, 0.0)
        lam_k = closed_form_eigenvalue(grid, k)
        ek = eigenpair(grid, k).vector
        assert abs(pair.lambda1 - lam_k) <= 1e-8
        assert abs(pair.lambda2 - lam_k) <= 1e-8
        assert l2_norm(pair.v1 - ek) <= 1e-6
        assert l2_norm(pair.v2 - (-ek)) <= 1e-6
        assert pair.eta == pytest.approx(0.5, abs=1e-9)


def test_split_k2_gamma1_against_curve_oracle(grid):
    oracle = two_hump_lambda1(1.0)
    shoot1 = shoot_split_lambda(2, 1.0, grid.length, 1)
    shoot2 = shoot_split_lambda(2, 1.0, grid.length, 2)
    # for k = 2 both branches lie on the same 1+1-hump curve
    assert abs(shoot1 - oracle) <= 1e-9
    assert abs(shoot2 - oracle) <= 1e-9
    pair = split_eigenvalues(grid, 2, 1.0)
    assert abs(pair.lambda1 - oracle) <= 5e-3
    assert abs(pair.lambda2 - oracle) <= 5e-3


def test_split_values_inside_window(grid):
    lam2 = closed_form_eigenvalue(grid, 2)
    lam3 = closed_form_eigenvalue(grid, 3)
    for gamma in (0.5, 1.0, 2.0):
        pair = split_eigenvalues(grid, 2, gamma)
        for lam in (pair.lambda1, pair.lambda2):
            assert lam2 - 1e-9 <= lam <= lam3 + 1e-9


def test_split_orientation_and_eta(grid):
    ek = eigenpair(grid, 2).vector
    for gamma in (0.5, 1.0, 2.0, 2.9):
        pair = split_eigenvalues(grid, 2, gamma)
        p1 = inner_l2(ek, pair.v1)
        p2 = inner_l2(ek, pair.v2)
        assert p1 > 0.0 > p2
        assert pair.eta == pytest.approx(0.5 * min(abs(p1), abs(p2)))
        assert pair.eta > 0.0
        assert l2_norm(pair.v1) == pytest.approx(1.0, rel=1e-9)
        assert l2_norm(pair.v2) == pytest.approx(1.0, rel=1e-9)


def test_split_residuals(grid):
    for gamma in (0.5, 1.0):
        pair = split_eigenvalues(grid, 2, gamma)
        assert half_eigen_residual(pair.v1, pair.lambda1, gamma) <= 1e-8
        assert half_eigen_residual(pair.v2, pair.lambda2, gamma) <= 1e-8


def test_split_shoot_discrete_consistency(grid):
    for gamma in (0.5, 1.5):
        pair = split_eigenvalues(grid, 2, gamma)
        for which, lam in ((1, pair.lambda1), (2, pair.lambda2)):
            shoot = shoot_split_lambda(2, gamma, grid.length, which)
            assert abs(lam - shoot) <= 5.0 * grid.h**2 * max(1.0, shoot)


def test_split_rejects_bad_gamma(grid):
    with pytest.raises(ValueError):
        split_eigenvalues(grid, 2, -0.1)
    with pytest.raises(ValueError):
        split_eigenvalues(grid, 2, 3.5)
    with pytest.raises(ValueError):
        split_eigenvalues(grid, 1, 0.5)
    split_eigenvalues(grid, 1, 0.0)


def test_residual_scaling_one_sided(grid):
    pair = split_eigenvalues(grid, 2, 1.0)
    base = half_eigen_residual(pair.v1, 5.0, 1.0)
    for alpha in (0.3, 2.0, 700.0):
        scaled = half_eigen_residual(alpha * pair.v1, 5.0, 1.0)
        assert scaled == pytest.approx(alpha * base, rel=1e-10)
    # negative scaling breaks the identity on sign-changing eigenfunctions
    res_pos = half_eigen_residual(pair.v1, pair.lambda1, 1.0)
    res_neg = half_eigen_residual(-1.0 * pair.v1, pair.lambda1, 1.0)
    assert res_pos <= 1e-8
    assert res_neg > 1e-3


def test_residual_rejects_zero_field(grid):
    from fucik_branch.grid import Field

    with pytest.raises(ValueError):
        half_eigen_residual(Field.zeros(grid), 4.0, 1.0)


def test_split_lambda_continuous_in_gamma(grid):
    gmax = gamma_window(grid, 2).gamma_max

    def max_jump(n: int) -> float:
        gammas = np.linspace(0.0, 0.9 * gmax, n)
        vals = [shoot_split_lambda(2, g, grid.length, 1) for g in gammas]
        return max(abs(b - a) for a, b in zip(vals, vals[1:]))

    coarse, fine = max_jump(10), max_jump(20)
    assert fine < coarse
    assert fine < 0.2


def fucik_relation_gap(lam_plus: float, lam_minus: float, n_plus: int,
                       n_minus: int, length: float) -> float:
    return (n_plus * math.pi / math.sqrt(lam_plus)
            + n_minus * math.pi / math.sqrt(lam_minus) - length)


def scanned_fucik_root_count(lam_plus: float, lo: float, hi: float,
                             length: float, cells: int = 20000) -> int:
    """Roots in lambda_minus of either shooting orientation, by a fine sign scan."""
    scan = np.linspace(lo, hi, cells + 1)
    hits = set()
    for fwd in (True, False):
        ends = [halfeig._shoot(lam_plus, lm, length)[0] if fwd
                else halfeig._shoot(lm, lam_plus, length)[0] for lm in scan]
        hits.update(i for i in range(cells) if ends[i] * ends[i + 1] < 0.0)
    return len(hits)


def test_fucik_curve_points_properties():
    points = fucik_curve_points(math.pi, 30.0, 40)
    assert len(points) > 50
    saw_two_hump = False
    for pt in points:
        assert abs(pt.n_plus - pt.n_minus) <= 1
        end_fwd = halfeig._shoot(pt.lambda_plus, pt.lambda_minus, math.pi)[0]
        end_rev = halfeig._shoot(pt.lambda_minus, pt.lambda_plus, math.pi)[0]
        assert min(abs(end_fwd), abs(end_rev)) <= 1e-9
        # each row satisfies the relation of its own hump counts
        gap = fucik_relation_gap(pt.lambda_plus, pt.lambda_minus, pt.n_plus,
                                 pt.n_minus, math.pi)
        assert abs(gap) <= 1e-9 * math.pi
        if (pt.n_plus, pt.n_minus) == (1, 1):
            saw_two_hump = True
            curve = 1.0 / math.sqrt(pt.lambda_plus) + 1.0 / math.sqrt(pt.lambda_minus)
            assert curve == pytest.approx(1.0, abs=1e-9)
    assert saw_two_hump

    # two samples up to 60: several curves meet lambda_plus = 60 within one
    # coarse scan cell; the count comes from a fine scan of both orientations
    lo = 1.0 + 1e-9
    coarse = fucik_curve_points(math.pi, 60.0, 2)
    expected = sum(scanned_fucik_root_count(lp, lo, 60.0, math.pi)
                   for lp in np.linspace(lo, 60.0, 2))
    assert expected == 9
    assert len(coarse) == expected
    for pt in coarse:
        gap = fucik_relation_gap(pt.lambda_plus, pt.lambda_minus, pt.n_plus,
                                 pt.n_minus, math.pi)
        assert abs(gap) <= 1e-9 * math.pi


def test_split_drift_within_p1_bound_over_grids_and_modes():
    # the P1 error of the k-th value is h^2 lambda^2 / 12 to leading order
    for n in (99, 199, 799):
        grid = Grid(n_interior=n)
        for k in range(2, 12):
            gmax = gamma_window(grid, k).gamma_max
            for gamma in (1e-5, 0.5 * gmax):
                pair = split_eigenvalues(grid, k, gamma)
                for which, lam, vec in ((1, pair.lambda1, pair.v1),
                                        (2, pair.lambda2, pair.v2)):
                    shoot = shoot_split_lambda(k, gamma, grid.length, which)
                    assert abs(lam - shoot) <= 0.25 * grid.h**2 * shoot**2
                    assert half_eigen_residual(vec, lam, gamma) <= 1e-8


def test_non_finite_inputs_are_rejected():
    with pytest.raises(ValueError):
        fucik_curve_points(math.pi, math.inf, 3)
    with pytest.raises(ValueError):
        fucik_curve_points(math.pi, math.nan, 3)
    with pytest.raises(ValueError):
        fucik_curve_points(math.nan, 30.0, 3)
    for bad in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            FucikPoint(*bad, 1, 1)
    with pytest.raises(ValueError):
        halfeig._shoot(math.inf, 1.0, math.pi)
    with pytest.raises(ValueError):
        halfeig._shoot(1.0, math.nan, math.pi)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError):
            shoot_split_lambda(2, gamma, math.pi, 1)
    for k in (0, -1, 2.0):
        with pytest.raises(ValueError):
            shoot_split_lambda(k, 0.5, math.pi, 1)
    with pytest.raises(ValueError):
        shoot_split_lambda(2, 0.5, math.inf, 1)
    with pytest.raises(ValueError):
        split_eigenvalues(Grid(), 2, math.nan)


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


@_PROPERTY
@given(k=st.integers(2, 12), frac=st.floats(1e-6, 0.999),
       length=st.floats(0.5, 10.0), which=st.sampled_from((1, 2)))
def test_shoot_split_lambda_solves_the_fucik_relation(k, frac, length, which):
    unit = (math.pi / length) ** 2
    gamma = frac * (2 * k - 1) * unit
    lam = shoot_split_lambda(k, gamma, length, which)
    assert k * k * unit <= lam <= (k + 1) ** 2 * unit
    up, down = (k + 1) // 2, k // 2
    n_plus, n_minus = (up, down) if which == 1 else (down, up)
    assert abs(fucik_relation_gap(lam, lam - gamma, n_plus, n_minus, length)) \
        <= 1e-12 * length
    # the arc chain starting down is the mirror of one starting up
    end = (halfeig._shoot(lam, lam - gamma, length) if which == 1
           else halfeig._shoot(lam - gamma, lam, length))[0]
    assert abs(end) <= 1e-9 * length


@_PROPERTY
@given(frac=st.floats(1e-6, 0.999), length=st.floats(0.5, 10.0))
def test_shoot_split_lambda_principal_mode(frac, length):
    lam1 = (math.pi / length) ** 2
    gamma = frac * lam1
    assert shoot_split_lambda(1, gamma, length, 1) == pytest.approx(lam1, rel=1e-12)
    assert shoot_split_lambda(1, gamma, length, 2) == pytest.approx(lam1 + gamma,
                                                                     rel=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(9, 800), k=st.integers(2, 11), frac=st.floats(1e-6, 0.999))
def test_discrete_half_eigenpair_residual(n, k, frac):
    grid = Grid(n_interior=n)
    k = min(k, n - 1)
    gamma = frac * gamma_window(grid, k).gamma_max
    pair = split_eigenvalues(grid, k, gamma)
    assert half_eigen_residual(pair.v1, pair.lambda1, gamma) <= 1e-8
    assert half_eigen_residual(pair.v2, pair.lambda2, gamma) <= 1e-8


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("n", [9, 199, 799, 3199])
def test_split_eigenvalues_bit_equal_to_list_shot_bisection(n):
    grid = Grid(n_interior=n)
    for k in (2, 3, 5):
        ek = eigenpair(grid, k).vector.values
        lam_lo = closed_form_eigenvalue(grid, k)
        lam_hi = closed_form_eigenvalue(grid, k + 1)
        for frac in (0.01, 0.25, 0.9):
            gamma = frac * gamma_window(grid, k).gamma_max
            pair = split_eigenvalues(grid, k, gamma)
            lam1, vec1 = reference_half_eigen(grid, gamma, 1, lam_lo, lam_hi)
            lam2, vec2 = reference_half_eigen(grid, gamma, 2, lam_lo, lam_hi)
            eta = 0.5 * min(abs(grid.h * float(np.dot(ek, vec1))),
                            abs(grid.h * float(np.dot(ek, vec2))))
            assert _bits(pair.lambda1) == _bits(lam1)
            assert _bits(pair.lambda2) == _bits(lam2)
            assert _bits(pair.v1.values) == _bits(vec1)
            assert _bits(pair.v2.values) == _bits(vec2)
            assert _bits(pair.eta) == _bits(eta)


@pytest.mark.parametrize("n", [9, 199, 799])
def test_end_value_shot_equals_last_node_of_full_shot(n):
    grid = Grid(n_interior=n)
    for k in (2, 5):
        lam_lo = closed_form_eigenvalue(grid, k)
        lam_hi = closed_form_eigenvalue(grid, k + 1)
        gamma = 0.25 * gamma_window(grid, k).gamma_max
        for which in (1, 2):
            u1 = grid.h if which == 1 else -grid.h
            root, vec = halfeig._discrete_half_eigen(grid, gamma, which,
                                                     lam_lo, lam_hi)
            for lam in (lam_lo, lam_hi, root):
                full = reference_shot(grid, gamma, which, lam)
                end = halfeig._end_value(grid, gamma, u1, lam)
                assert _bits(end) == _bits(full[-1])
                values = halfeig._shot_values(grid, gamma, u1, lam)
                assert _bits(values) == _bits(full[1:-1])
