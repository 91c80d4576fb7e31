"""Half-eigenvalues of -u'' - gamma*u^- = lambda*u and Fucik curve sampling."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fucik_branch import halfeig
from fucik_branch.grid import Grid, inner_l2, l2_norm
from fucik_branch.halfeig import (
    FucikCurves,
    fucik_curve_points,
    gamma_window,
    half_eigen_residual,
    shoot_split_lambda,
    split_eigenvalues,
)
from fucik_branch.spectrum import closed_form_eigenvalue, eigenpair

from conftest import counting, reference_half_eigen, reference_shot
from oracles import reference_bisect, reference_fucik_curve_points


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
    assert abs(gamma_window(grid, 2) - 3.0) <= 5e-3


def test_gamma_window_k3(grid):
    assert abs(gamma_window(grid, 3) - 5.0) <= 2e-2


def test_gamma_window_refines_toward_continuum():
    coarse = abs(gamma_window(Grid(n_interior=99), 2) - 3.0)
    fine = abs(gamma_window(Grid(n_interior=199), 2) - 3.0)
    assert fine < coarse


def test_gamma_window_positive(grid):
    for k in range(2, 12):
        assert gamma_window(grid, k) > 0.0


def test_gamma_window_k1_is_the_gap_above(grid):
    # -e_1 < 0 feels all of gamma, so the k = 1 pair is lambda_1 and
    # lambda_1 + gamma, and only lambda_2 bounds it
    gap = closed_form_eigenvalue(grid, 2) - closed_form_eigenvalue(grid, 1)
    assert gamma_window(grid, 1) == gap
    with pytest.raises(ValueError, match="^k must be a positive integer, got 0$"):
        gamma_window(grid, 0)


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
    for gamma in (gamma_window(grid, 1), 3.5):
        with pytest.raises(ValueError, match=r"^gamma=.* outside \[0, .*\) for k=1$"):
            split_eigenvalues(grid, 1, gamma)


@pytest.mark.parametrize("n", [9, 199])
@pytest.mark.parametrize("gamma", [0.0, -0.0, 0.5, 2.0])
def test_k1_split_is_exact(n, gamma):
    # e_1 > 0 never feels the gamma term and -e_1 < 0 feels all of it
    grid = Grid(n_interior=n)
    e1 = eigenpair(grid, 1)
    pair = split_eigenvalues(grid, 1, gamma)
    assert math.copysign(1.0, pair.gamma) == 1.0 and pair.gamma == gamma
    assert (pair.lambda1, pair.lambda2) == (e1.value, e1.value + gamma)
    assert np.array_equal(pair.v1.values, e1.vector.values)
    assert np.array_equal(pair.v2.values, -e1.vector.values)
    assert pair.eta == 0.5
    assert half_eigen_residual(pair.v1, pair.lambda1, gamma) <= 1e-12
    assert half_eigen_residual(pair.v2, pair.lambda2, gamma) <= 1e-12


# isinstance(True, int) holds, but a bool names no mode: k=True once gave the
# k = 1 value and which=True or which=1.0 the which = 1 branch
@pytest.mark.parametrize("call, message", [
    (lambda k: gamma_window(Grid(), k), "k must be a positive integer"),
    (lambda k: shoot_split_lambda(k, 0.0, math.pi, 1), "k must be an integer >= 1"),
    (lambda k: split_eigenvalues(Grid(), k, 0.0), "k must be a positive integer"),
    (lambda which: shoot_split_lambda(1, 0.0, math.pi, which), "which must be 1 or 2"),
], ids=["gamma_window", "shoot_split_lambda", "split_eigenvalues", "which"])
@pytest.mark.parametrize("bad", [True, False, 1.0, 2.0])
def test_mode_indices_reject_bools_and_floats(call, message, bad):
    with pytest.raises(ValueError, match=f"^{message}"):
        call(bad)


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
    gmax = gamma_window(grid, 2)

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


def columns(curves: FucikCurves) -> list[list]:
    """The four columns of curves as lists of Python floats and ints."""
    return [c.tolist() for c in (curves.lambda_plus, curves.lambda_minus, curves.n_plus,
                                 curves.n_minus)]


def test_fucik_curve_points_properties():
    points = fucik_curve_points(math.pi, 30.0, 40)
    assert len(points) > 50
    saw_two_hump = False
    for lam_plus, lam_minus, n_plus, n_minus in zip(*columns(points)):
        assert abs(n_plus - n_minus) <= 1
        end_fwd = halfeig._shoot(lam_plus, lam_minus, math.pi)[0]
        end_rev = halfeig._shoot(lam_minus, lam_plus, math.pi)[0]
        assert min(abs(end_fwd), abs(end_rev)) <= 1e-9
        # each row satisfies the relation of its own hump counts
        gap = fucik_relation_gap(lam_plus, lam_minus, n_plus, n_minus, math.pi)
        assert abs(gap) <= 1e-9 * math.pi
        if (n_plus, n_minus) == (1, 1):
            saw_two_hump = True
            curve = 1.0 / math.sqrt(lam_plus) + 1.0 / math.sqrt(lam_minus)
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
    for row in zip(*columns(coarse)):
        assert abs(fucik_relation_gap(*row, math.pi)) <= 1e-9 * math.pi


def _sweep_or_error(sweep, *args):
    try:
        return sweep(*args)
    except ValueError as exc:
        return str(exc)


# lambda_1 = (pi/L)^2 is above 3 for L = 1 and above 60 for L = 0.31
@pytest.mark.parametrize("length, swept_cases",
                         [(math.pi, 36), (1.0, 30), (2.5, 36), (7.3, 36), (0.31, 12)])
def test_fucik_curve_points_bit_equal_to_the_loop(length, swept_cases):
    swept = 0
    for lambda_max in (3.0, 12.0, 30.0, 60.0, 200.0, 1234.5):
        for samples in (2, 3, 40, 50, 200, 1000):
            args = (length, lambda_max, samples)
            expected = _sweep_or_error(reference_fucik_curve_points, *args)
            got = _sweep_or_error(fucik_curve_points, *args)
            if isinstance(expected, str):
                # the loop's ValueError, with its message
                assert got == expected
                continue
            swept += 1
            assert isinstance(got, FucikCurves) and len(got) == len(expected[0])
            assert columns(got) == list(expected)
    assert swept == swept_cases


def test_fucik_curve_points_rejects_what_the_loop_rejects():
    for args in ((math.pi, 30.0, 1), (math.pi, 0.5, 40), (math.pi, math.inf, 3),
                 (math.pi, math.nan, 3), (0.0, 30.0, 3), (math.nan, 30.0, 3)):
        expected = _sweep_or_error(reference_fucik_curve_points, *args)
        assert isinstance(expected, str)
        assert _sweep_or_error(fucik_curve_points, *args) == expected


@pytest.mark.parametrize("lambda_max", [25.0, 49.0, 81.0])
def test_fucik_curve_points_keeps_the_first_pair_of_a_tie(lambda_max):
    # at lambda_plus = (2a+1)^2 on (0, pi), the pairs (a, a+1) and (a+1, a)
    # give the same lambda_minus = lambda_plus in floating point too; the
    # loop's setdefault keeps (a, a+1)
    a = (math.isqrt(int(lambda_max)) - 1) // 2
    got = columns(fucik_curve_points(math.pi, lambda_max, 2))
    assert got == list(reference_fucik_curve_points(math.pi, lambda_max, 2))
    ties = [(n_plus, n_minus) for lam_plus, lam_minus, n_plus, n_minus in zip(*got)
            if lam_plus == lam_minus == lambda_max]
    assert ties == [(a, a + 1)]


def test_float_power_squares_as_python_does():
    # the array sweep squares with np.float_power to match the loop's x ** 2
    x = 2.1367541098445986
    assert x ** 2 == 4.565718125937782 != x * x
    assert np.float_power(np.array([x]), 2.0)[0] == x ** 2
    rng = np.random.default_rng(12)
    xs = np.concatenate([rng.uniform(0.0, 100.0, 2000),
                         np.exp(rng.uniform(-20.0, 20.0, 2000))])
    assert np.float_power(xs, 2.0).tolist() == [x ** 2 for x in xs.tolist()]


def test_fucik_curves_apply_the_point_rules():
    def curves(lam_plus, lam_minus, n_plus, n_minus):
        return FucikCurves(np.array(lam_plus), np.array(lam_minus),
                           np.array(n_plus), np.array(n_minus))

    good = curves([2.0, 3.0], [4.0, 5.0], [1, 2], [2, 2])
    assert len(good) == 2
    assert columns(good) == [[2.0, 3.0], [4.0, 5.0], [1, 2], [2, 2]]
    assert len(curves([], [], [], [])) == 0
    for lam_plus, lam_minus in (([2.0, 0.0], [4.0, 5.0]), ([2.0, 3.0], [-1.0, 5.0]),
                                ([2.0, math.nan], [4.0, 5.0])):
        with pytest.raises(ValueError, match="^Fucik point requires positive "
                                             "lambda_plus and lambda_minus$"):
            curves(lam_plus, lam_minus, [1, 1], [1, 1])
    for n_plus, n_minus in (([1, 3], [1, 1]), ([0, 1], [2, 1])):
        with pytest.raises(ValueError, match="^alternating humps can differ in "
                                             "count by at most 1$"):
            curves([2.0, 3.0], [4.0, 5.0], n_plus, n_minus)
    with pytest.raises(ValueError, match="equal length"):
        curves([2.0, 3.0], [4.0], [1, 1], [1, 1])


def test_split_drift_within_p1_bound_over_grids_and_modes():
    # the P1 error of the k-th value is h^2 lambda^2 / 12 to leading order
    for n in (99, 199, 799):
        grid = Grid(n_interior=n)
        for k in range(2, 12):
            gmax = gamma_window(grid, k)
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
    for lam_plus, lam_minus in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            FucikCurves(np.array([lam_plus]), np.array([lam_minus]), np.array([1]),
                        np.array([1]))
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
    gamma = frac * gamma_window(grid, k)
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
            gamma = frac * gamma_window(grid, k)
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
        gamma = 0.25 * gamma_window(grid, k)
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


def _magnitude(shape: str, scale: float, floor: float, flat: float):
    """A magnitude, as a function of the distance d >= 0 from the step."""
    if shape == "linear":
        return lambda d: scale * d
    if shape == "flat":
        # a quantized plateau of height floor within flat of the step, as the
        # end value u_{n+1} shows next to its root
        return lambda d: floor if d <= flat else max(scale * d, floor)
    return lambda d: scale * (1.0 + 1e6 * ((d * 1e9) % 1.0))


def _ulps_above(x: float, count: int) -> float:
    for _ in range(count):
        x = math.nextafter(x, math.inf)
    return x


_magnitudes = st.floats(1e-300, 1e300)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lo=st.floats(-1e6, 1e6),
       span=st.one_of(st.integers(1, 300), st.floats(1e-12, 1e6)),
       where=st.sampled_from(("below", "first", "second", "inside", "last", "above")),
       frac=st.floats(0.0, 1.0),
       shapes=st.tuples(st.sampled_from(("linear", "flat", "wild")),
                        st.sampled_from(("linear", "flat", "wild", "zero"))),
       scales=st.tuples(_magnitudes, _magnitudes),
       floors=st.tuples(_magnitudes, _magnitudes),
       flat_ulps=st.integers(0, 5000))
def test_root_finder_equals_bisection_on_step_functions(lo, span, where, frac, shapes,
                                                        scales, floors, flat_ulps):
    if isinstance(span, int):
        hi = _ulps_above(lo, span)
    else:
        hi = max(lo + span * max(1.0, abs(lo)), math.nextafter(lo, math.inf))
    t = {"below": math.nextafter(lo, -math.inf), "first": lo,
         "second": math.nextafter(lo, math.inf),
         "inside": min(hi, lo + frac * (hi - lo)), "last": hi,
         "above": math.nextafter(hi, math.inf)}[where]
    flat = flat_ulps * math.ulp(t)
    left = _magnitude(shapes[0], scales[0], floors[0], flat)
    right = (lambda d: 0.0) if shapes[1] == "zero" else \
        _magnitude(shapes[1], scales[1], floors[1], flat)

    def f(x: float) -> float:
        # f > 0 below t and f <= 0 from t on, whatever the magnitudes
        return max(left(t - x), 5e-324) if x < t else -right(x - t)

    expected = _bits(reference_bisect(f, lo, hi))
    assert _bits(halfeig._bisect(f, lo, hi)) == expected
    assert _bits(halfeig._bisect(f, lo, hi, f_lo=f(lo), f_hi=f(hi))) == expected


def _searches(monkeypatch, grid: Grid, k: int, gamma: float) -> list[list]:
    """The multiplier pairs split_eigenvalues shoots, one list per
    _discrete_half_eigen call, in the order _end_value shoots them."""
    searches = []
    search, end_value = halfeig._discrete_half_eigen, halfeig._end_value

    def recorded_search(*args):
        searches.append([])
        return search(*args)

    def recorded_end_value(grid, gamma, u1, lam):
        searches[-1].append(halfeig._multipliers(grid, gamma, lam))
        return end_value(grid, gamma, u1, lam)

    monkeypatch.setattr(halfeig, "_discrete_half_eigen", recorded_search)
    monkeypatch.setattr(halfeig, "_end_value", recorded_end_value)
    split_eigenvalues(grid, k, gamma)
    monkeypatch.undo()
    return searches


def _shots_per_pair(monkeypatch, grid: Grid, k: int, gamma: float) -> int:
    return sum(map(len, _searches(monkeypatch, grid, k, gamma)))


@pytest.mark.parametrize("n,k,gamma", [(799, 2, None), (799, 3, None), (799, 4, None),
                                       (799, 5, None), (399, 2, 0.5), (399, 3, 0.5)])
def test_split_eigenvalues_shot_budget_on_benchmark_cases(monkeypatch, n, k, gamma):
    # the halfeig cases of the benchmark; bisecting the whole window took
    # 105-108 end-value shots per pair on them, the drift-bracket search
    # 41-55, and shooting each multiplier pair once takes 10-14
    grid = Grid(n_interior=n)
    if gamma is None:
        gamma = gamma_window(grid, k) / 4.0
    assert _shots_per_pair(monkeypatch, grid, k, gamma) <= 16


@pytest.mark.parametrize("n", [9, 199, 799, 3199])
def test_split_eigenvalues_takes_no_more_shots_than_bisection(monkeypatch, n):
    grid = Grid(n_interior=n)
    for k in (2, 3, 5):
        lam_lo = closed_form_eigenvalue(grid, k)
        lam_hi = closed_form_eigenvalue(grid, k + 1)
        for frac in (0.01, 0.25, 0.9):
            gamma = frac * gamma_window(grid, k)
            bisection = 0
            for u1 in (grid.h, -grid.h):
                # one shot orients the window, then bisection over all of it
                side = math.copysign(1.0, halfeig._end_value(grid, gamma, u1, lam_lo))
                counts = {"shots": 1}
                reference_bisect(
                    counting(counts, "shots",
                             lambda x: side * halfeig._end_value(grid, gamma, u1, x)),
                    lam_lo, lam_hi)
                bisection += counts["shots"]
            searches = _searches(monkeypatch, grid, k, gamma)
            assert len(searches) == 2
            # each search shoots a multiplier pair at most once
            assert all(len(set(pairs)) == len(pairs) for pairs in searches)
            assert sum(map(len, searches)) <= bisection


def _same_multipliers_within(grid: Grid, gamma: float, lam: float, ulps: int) -> float:
    """The double farthest from lam, at most |ulps| steps toward sign(ulps), whose
    multipliers are lam's. The doubles sharing a pair are consecutive, because
    each multiplier rounds a monotone function of lam."""
    key = halfeig._multipliers(grid, gamma, lam)
    toward = math.copysign(math.inf, ulps)
    for _ in range(abs(ulps)):
        step = math.nextafter(lam, toward)
        if halfeig._multipliers(grid, gamma, step) != key:
            break
        lam = step
    return lam


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((9, 199, 799)), k=st.integers(2, 10),
       frac=st.floats(1e-6, 0.999), which=st.sampled_from((1, 2)),
       where=st.floats(0.0, 1.0), ulps=st.integers(1, 8) | st.integers(-8, -1))
def test_end_value_reads_lambda_only_through_the_multipliers(n, k, frac, which,
                                                             where, ulps):
    # the invariant that lets _discrete_half_eigen shoot each multiplier pair once
    grid = Grid(n_interior=n)
    k = min(k, n - 1)
    gamma = frac * gamma_window(grid, k)
    lam_shoot = shoot_split_lambda(k, gamma, grid.length, which)
    drift = halfeig._DRIFT_CONST * grid.h ** 2 * lam_shoot ** 2
    lam_lo = max(closed_form_eigenvalue(grid, k), lam_shoot - drift)
    lam_hi = min(closed_form_eigenvalue(grid, k + 1), lam_shoot + drift)
    lam = lam_lo + where * (lam_hi - lam_lo)
    near = _same_multipliers_within(grid, gamma, lam, ulps)
    assume(near != lam)
    u1 = grid.h if which == 1 else -grid.h
    assert _bits(halfeig._end_value(grid, gamma, u1, near)) == \
        _bits(halfeig._end_value(grid, gamma, u1, lam))
