"""Branch tracing: seed behavior, defect sizes, cones, scaling, termination."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from fucik_branch import _tridiag, continuation, monotone, quasilinear
from fucik_branch.continuation import (BranchSeed, Termination,
                                       _bordered_solve, _corrector,
                                       _trivial_candidates, decompose, ls_residual,
                                       localization_check, newton_at_lambda,
                                       recompose, scaling_slope, trace_branch)
from fucik_branch.grid import (Field, Grid, dual_norm, gradient_values, h10_norm,
                               inner_l2, l2_norm, w1p_norm)
from fucik_branch.halfeig import gamma_window, split_eigenvalues
from fucik_branch.monotone import SolverError
from fucik_branch.quasilinear import (Jacobian, ProblemParams, _jacobian, _residual,
                                      from_infinity_variable, residual_original,
                                      residual_transformed)
from fucik_branch.spectrum import closed_form_eigenvalue, eigenpair

from conftest import count_calls_by_name, count_trials, counting, random_field
from oracles import (cone_test, reference_bordered_solve, reference_trace_jacobian,
                     reference_trace_residual, shoot_branch_lambda)


def weighted_l2(field: Field) -> float:
    return math.sqrt(field.grid.h * float(np.dot(field.values, field.values)))


def ls_defect(point, k: int, p: float, gamma: float) -> float:
    params = ProblemParams(p=p, gamma=gamma, lam=point.lam)
    split = decompose(point.u, k)
    scalar, dv = ls_residual(split.alpha, point.lam, split.v, params, k)
    return max(abs(scalar), l2_norm(dv))


def test_decompose_recompose_round_trip(grid, rng):
    u = random_field(grid, rng)
    split = decompose(u, 3)
    ek = eigenpair(grid, 3).vector
    assert inner_l2(ek, split.v) == approx(0.0, abs=1e-13)
    back = recompose(split.alpha, split.v, 3)
    assert np.allclose(back.values, u.values, rtol=0.0, atol=1e-12)


def test_ls_residual_vanishes_at_zero(grid):
    params = ProblemParams(p=3.0, gamma=0.5, lam=5.0)
    scalar, dv = ls_residual(0.0, 5.0, Field.zeros(grid), params, 2)
    assert scalar == 0.0
    assert not dv.values.any()


def test_ls_defects_bounded_along_branch(branch_p3_w1):
    # every accepted point satisfies the reduced system to corrector accuracy
    seed = branch_p3_w1.seed
    worst = 0.0
    for pt in branch_p3_w1.points:
        defect = ls_defect(pt, seed.k, seed.p, seed.gamma)
        assert defect <= 10.0 * pt.corrector_tol
        worst = max(worst, defect / pt.corrector_tol)
    assert worst > 0.0


def test_ls_defects_bounded_on_transformed_branch(branch_p15):
    # the ball solver inside ls_residual needs the iterate well inside a
    # coercive radius, so only moderate-norm points are checkable
    seed = branch_p15.seed
    checked = 0
    for pt in branch_p15.points:
        if pt.h12 > 0.2:
            continue
        defect = ls_defect(pt, seed.k, seed.p, seed.gamma)
        assert defect <= 10.0 * pt.corrector_tol
        checked += 1
    assert checked >= 3


def test_ls_defect_tracks_corrector_tolerance(monkeypatch):
    seed = BranchSeed(k=1, which=1, gamma=0.0, p=3.0)
    maxima = []
    for tol in (1e-5, 1e-6):
        monkeypatch.setattr(continuation, "_CORRECTOR_TOL", tol)
        branch = trace_branch(seed, max_steps=4)
        defects = [ls_defect(pt, 1, 3.0, 0.0) for pt in branch.points]
        tols = [pt.corrector_tol for pt in branch.points]
        assert max(d / t for d, t in zip(defects, tols)) <= 10.0
        maxima.append(max(defects))
    assert maxima[1] <= maxima[0]


def test_fresh_residual_matches_stored_tolerance(branch_p3_w1, branch_p15):
    for branch in (branch_p3_w1, branch_p15):
        p = branch.seed.p
        for pt in branch.points[:: len(branch.points) // 8]:
            params = ProblemParams(p=p, gamma=branch.seed.gamma, lam=pt.lam)
            if p > 2.0:
                r = residual_original(pt.u, params)
            else:
                r = residual_transformed(pt.u, params)
            assert weighted_l2(r) <= pt.corrector_tol


def test_branch_shape_and_seed_data(branch_p3_w1, grid):
    pair = split_eigenvalues(grid, 2, 0.5)
    branch = branch_p3_w1
    assert branch.lambda_seed == approx(pair.lambda1, rel=1e-12)
    assert branch.eta == approx(pair.eta, rel=1e-12)
    assert len(branch.points) >= 50
    assert branch.termination.kind in ("MaxSteps", "MeetsInfinity")
    s_vals = [pt.s for pt in branch.points]
    assert s_vals[0] == 0.0
    assert all(b > a for a, b in zip(s_vals, s_vals[1:]))
    for pt in branch.points:
        assert math.isfinite(pt.lam) and math.isfinite(pt.alpha)
        assert math.isfinite(pt.l2) and math.isfinite(pt.h12)
        assert pt.h12_original is None
        assert pt.corrector_tol >= continuation._CORRECTOR_TOL


def test_early_points_in_positive_cone(branch_p3_w1):
    early = [pt for pt in branch_p3_w1.points if pt.l2 < 0.1]
    assert len(early) >= 3
    for pt in early:
        assert pt.in_cone
        assert pt.alpha > 0.0


def test_early_points_in_negative_cone(branch_p3_w2, grid):
    pair = split_eigenvalues(grid, 2, 0.5)
    assert branch_p3_w2.lambda_seed == approx(pair.lambda2, rel=1e-12)
    early = [pt for pt in branch_p3_w2.points if pt.l2 < 0.1]
    assert len(early) >= 3
    for pt in early:
        assert pt.in_cone
        assert pt.alpha < 0.0


def test_cone_sides_are_disjoint(branch_p3_w1, branch_p3_w2):
    eta = branch_p3_w1.eta
    for pt in branch_p3_w1.points:
        if pt.in_cone:
            assert not cone_test(pt.u, 2, eta, -1)
    for pt in branch_p3_w2.points:
        if pt.in_cone:
            assert not cone_test(pt.u, 2, eta, 1)


@pytest.mark.parametrize("fixture", ["branch_p3_w2", "branch_p15"])
def test_point_in_cone_equals_cone_test(request, fixture):
    branch = request.getfixturevalue(fixture)
    side = 1 if branch.seed.which == 1 else -1
    assert any(pt.in_cone for pt in branch.points)
    for pt in branch.points:
        assert pt.in_cone == cone_test(pt.u, branch.seed.k, branch.eta, side)


@pytest.mark.parametrize("fixture", ["branch_p3_w1", "branch_p15"])
def test_point_norms_and_projection_equal_the_field_functions(request, fixture):
    # a point takes l2, h12 and alpha from the corrector's arrays; they keep
    # the bits of the Field-level functions
    branch = request.getfixturevalue(fixture)
    ek = eigenpair(branch.points[0].u.grid, branch.seed.k).vector
    for pt in branch.points:
        assert pt.l2 == l2_norm(pt.u)
        assert pt.h12 == h10_norm(pt.u)
        assert pt.alpha == inner_l2(ek, pt.u)


@pytest.mark.parametrize("fixture", ["branch_p3_w1", "branch_p3_w2", "branch_p15"])
def test_trace_points_lie_on_the_discrete_march(request, fixture, grid):
    # shooting the discrete equation from a point's first element flux finds
    # the point's lambda again; a p < 2 point is marched in the original
    # variable, which solves the same equation at the same lambda
    branch = request.getfixturevalue(fixture)
    p, gamma = branch.seed.p, branch.seed.gamma
    for pt in branch.points[::20]:
        u = pt.u if p > 2.0 else from_infinity_variable(pt.u, p)
        g0 = u.values[0] / grid.h
        sigma0 = math.copysign(abs(g0) ** (p - 1.0), g0) + g0
        assert shoot_branch_lambda(grid, p, gamma, pt.lam, sigma0) \
            == approx(pt.lam, rel=1e-10, abs=0.0)


def test_seed_limit_extrapolation(branch_p3_w1):
    # lambda(s) -> lambda_seed as the branch is followed back to zero norm
    head = branch_p3_w1.points[:5]
    fit = np.polyfit([pt.l2 for pt in head], [pt.lam for pt in head], 1)
    assert abs(fit[1] - branch_p3_w1.lambda_seed) <= 1e-2
    assert branch_p3_w1.points[0].l2 <= 2.0 * branch_p3_w1.seed.alpha0


def test_smaller_alpha0_tightens_seed(grid):
    # over three decades of alpha0 the seed point converges to the split
    # eigenpair: lambda deviation and the drift of u/alpha away from the
    # half-eigenfunction direction both shrink by ~10x per decade
    pair = split_eigenvalues(grid, 2, 0.5)
    e2 = eigenpair(grid, 2).vector
    c = inner_l2(e2, pair.v1)
    lam_devs = []
    drifts = []
    for a0 in (1e-2, 1e-3, 1e-4):
        seed = BranchSeed(k=2, which=1, gamma=0.5, p=3.0, alpha0=a0)
        branch = trace_branch(seed, max_steps=1)
        pt = branch.points[0]
        split = decompose(pt.u, 2)
        lam_devs.append(abs(pt.lam - pair.lambda1))
        drifts.append(l2_norm((1.0 / split.alpha) * pt.u - (1.0 / c) * pair.v1))
    assert lam_devs[1] <= 0.2 * lam_devs[0]
    assert lam_devs[2] <= 0.2 * lam_devs[1]
    assert drifts[1] <= 0.2 * drifts[0]
    assert drifts[2] <= 0.2 * drifts[1]


def test_complement_vanishes_relative_to_alpha_gamma_zero():
    # at gamma = 0 the branch direction is e_k itself, so the orthogonal
    # complement of the seed point is genuinely o(alpha)
    ratios = []
    for a0 in (1e-2, 1e-3, 1e-4):
        seed = BranchSeed(k=2, which=1, gamma=0.0, p=3.0, alpha0=a0)
        branch = trace_branch(seed, max_steps=1)
        split = decompose(branch.points[0].u, 2)
        ratios.append(l2_norm(split.v) / abs(split.alpha))
    assert ratios[1] <= 0.2 * ratios[0]
    assert ratios[2] <= 0.2 * ratios[1]


def test_scaling_slope_near_one(branch_p3_w1):
    slope = scaling_slope(branch_p3_w1)
    assert 0.8 <= slope <= 1.2


def test_scaling_slope_needs_points(branch_p3_w1):
    truncated = branch_p3_w1.points[:1]
    stub = type(branch_p3_w1)(seed=branch_p3_w1.seed, points=tuple(truncated),
                              termination=branch_p3_w1.termination,
                              lambda_seed=branch_p3_w1.lambda_seed,
                              eta=branch_p3_w1.eta)
    assert math.isnan(scaling_slope(stub))


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
def test_scaling_slope_matches_the_bifurcation_exponent(p, k, which):
    # |lambda - lambda_seed| ~ |alpha|^e near the seed, with e = 2 in the
    # rescaled variable for p < 2 and e = p - 2 for p > 2; the slope reads
    # only the first 25 points
    branch = trace_branch(BranchSeed(k=k, which=which, gamma=0.5, p=p),
                          Grid(n_interior=199), 25)
    exponent = 2.0 if p < 2.0 else p - 2.0
    assert scaling_slope(branch) == approx(exponent, rel=0.03)


def test_localization_radius_positive(branch_p3_w1, branch_p3_w2):
    for branch in (branch_p3_w1, branch_p3_w2):
        assert localization_check(branch) == (math.inf, 0)


def test_localization_check_counts_the_points_outside_the_cone(branch_p3_w1):
    # rho0 is the (lambda, ||u||_2) distance to the seed of the nearest point
    # outside its cone
    branch = branch_p3_w1
    far, near = branch.points[40], branch.points[30]
    points = list(branch.points)
    for i in (30, 40):
        pt = points[i]
        points[i] = type(pt)(pt.s, pt.lam, pt.u, pt.alpha, pt.l2, pt.h12, False,
                             pt.corrector_tol, pt.iterations)
    stub = type(branch)(branch.seed, tuple(points), branch.termination,
                        branch.lambda_seed, branch.eta)
    assert near.l2 < far.l2
    assert localization_check(stub) == (math.hypot(near.lam - branch.lambda_seed, near.l2), 2)


def test_rayleigh_identity_gamma_zero():
    # pairing the equation with u: lam*||u||_2^2 = ||u||_{1,p}^p + ||u||_{1,2}^2
    seed = BranchSeed(k=1, which=1, gamma=0.0, p=3.0)
    branch = trace_branch(seed, max_steps=40)
    lam1 = branch.lambda_seed
    for pt in branch.points:
        lhs = pt.lam * pt.l2 ** 2
        rhs = w1p_norm(pt.u, 3.0) ** 3 + h10_norm(pt.u) ** 2
        assert abs(lhs - rhs) <= 10.0 * pt.corrector_tol * pt.l2 + 1e-14
        assert pt.lam >= lam1 - 1e-10
    lams = [pt.lam for pt in branch.points[:15]]
    l2s = [pt.l2 for pt in branch.points[:15]]
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
    assert all(b > a for a, b in zip(l2s, l2s[1:]))


@pytest.mark.parametrize("gamma", [0.5, 2.0])
@pytest.mark.parametrize("p", [3.0, 1.5])
def test_k1_negative_trace_is_the_positive_one_negated_and_shifted(p, gamma, grid):
    # u < 0 feels the whole gamma term, so -u solves the equation without it
    # at lambda - gamma
    pos = trace_branch(BranchSeed(k=1, which=1, gamma=gamma, p=p), grid)
    neg = trace_branch(BranchSeed(k=1, which=2, gamma=gamma, p=p), grid)
    assert neg.lambda_seed == pos.lambda_seed + gamma
    assert len(neg.points) == len(pos.points) == 200
    assert neg.termination == pos.termination
    for a, b in zip(pos.points, neg.points):
        assert abs(b.lam - gamma - a.lam) <= 1e-9 * a.lam
        assert float(np.max(np.abs(b.u.values + a.u.values))) \
            <= 1e-9 * float(np.max(np.abs(a.u.values)))
        assert a.in_cone and b.in_cone


def test_norm_cap_termination(monkeypatch):
    seed = BranchSeed(k=1, which=1, gamma=0.0, p=3.0)
    monkeypatch.setattr(continuation, "_NORM_CAP", 1.0)
    branch = trace_branch(seed, max_steps=400)
    assert branch.termination.kind == "MeetsInfinity"
    assert branch.points[-1].l2 > 1.0
    assert all(pt.l2 <= 1.0 for pt in branch.points[:-1])


def test_transformed_branch_reports_original_norm(branch_p15):
    for pt in branch_p15.points:
        assert pt.h12_original is not None
        assert pt.h12_original == approx(pt.h12 ** (1.0 / (1.5 / 2.0 - 1.0)),
                                         rel=1e-12)
    h12s = [pt.h12 for pt in branch_p15.points]
    assert h12s[-1] > h12s[0]
    # growing transformed norm means shrinking original norm and vice versa
    origs = [pt.h12_original for pt in branch_p15.points]
    assert origs[-1] < origs[0]


def test_transformed_residual_maps_back(branch_p15):
    # the original-equation residual of a back-transformed point is the
    # transformed residual amplified by ||u||_{1,2}/||v||_{1,2}; the slack
    # term covers rounding of the rescaled field, which the second
    # difference magnifies in proportion to its amplitude
    seed = branch_p15.seed
    moderate = 0
    for pt in branch_p15.points:
        params = ProblemParams(p=seed.p, gamma=seed.gamma, lam=pt.lam)
        r_t = dual_norm(residual_transformed(pt.u, params))
        u_orig = from_infinity_variable(pt.u, seed.p)
        r_o = dual_norm(residual_original(u_orig, params))
        scale = h10_norm(u_orig) / pt.h12
        assert r_o <= scale * r_t + 1e-11 * max(1.0, pt.h12_original)
        if pt.h12 >= 0.4:
            # amplification <= 100 here, so corrector accuracy survives
            assert r_o <= 100.0 * pt.corrector_tol
            moderate += 1
    assert moderate >= 20


def test_original_residual_small_where_branch_is_flat(branch_p15):
    # near the seed the back-transformed solutions are huge while lambda
    # stays close to the split eigenvalue; their original residual is
    # certifiable at 1e-5 wherever double precision can still resolve it
    # (evaluation noise grows with the back-transformed amplitude)
    window = [pt for pt in branch_p15.points
              if pt.h12_original >= 1e3
              and abs(pt.lam - branch_p15.lambda_seed) <= 0.1]
    assert len(window) >= 3
    assert max(pt.h12_original for pt in window) >= 1e7
    certifiable = [pt for pt in window if pt.h12_original <= 1e7]
    assert len(certifiable) >= 3
    for pt in certifiable:
        params = ProblemParams(p=1.5, gamma=0.5, lam=pt.lam)
        u_orig = from_infinity_variable(pt.u, 1.5)
        assert dual_norm(residual_original(u_orig, params)) <= 1e-5


def test_seed_validation():
    with pytest.raises(ValueError):
        BranchSeed(k=0, which=1, gamma=0.0, p=3.0)
    with pytest.raises(ValueError):
        BranchSeed(k=2, which=3, gamma=0.0, p=3.0)
    with pytest.raises(ValueError):
        BranchSeed(k=2, which=1, gamma=-0.1, p=3.0)
    with pytest.raises(ValueError):
        BranchSeed(k=2, which=1, gamma=0.0, p=2.0)
    with pytest.raises(ValueError):
        BranchSeed(k=2, which=1, gamma=0.0, p=0.5)
    # a bool or a float equal to 1 is not an index: it would name the
    # output file branch_kTrue_wTrue.csv
    for k, which, field in ((True, 1, "k"), (2.0, 1, "k"), (2, True, "which"),
                            (2, False, "which"), (2, 1.0, "which"), (2, 2.0, "which")):
        with pytest.raises(ValueError, match=f"^{field} must"):
            BranchSeed(k=k, which=which, gamma=0.0, p=3.0)


@pytest.mark.parametrize("field, good, bad", [
    ("gamma", 0.0, [math.nan, math.inf, -math.inf, -0.1]),
    ("p", 1.5, [math.nan, math.inf, 2.0, 1.0, 0.5]),
    ("alpha0", 0.5, [math.nan, math.inf, -math.inf, 0.0, -1e-3]),
])
def test_seed_field_must_be_finite_and_in_range(field, good, bad):
    base = {"k": 2, "which": 1, "gamma": 0.5, "p": 3.0}
    assert getattr(BranchSeed(**{**base, field: good}), field) == good
    for value in bad:
        with pytest.raises(ValueError, match=field):
            BranchSeed(**{**base, field: value})


def test_max_steps_must_be_an_int_at_least_1(monkeypatch):
    seed = BranchSeed(k=2, which=1, gamma=0.5, p=3.0)
    assert len(trace_branch(seed, max_steps=1).points) == 1

    def no_work(*args):
        raise AssertionError("trace_branch worked before checking max_steps")

    monkeypatch.setattr(continuation, "split_eigenvalues", no_work)
    for bad in (0, -3, 2.5, 3.0, True, math.nan, "4"):
        with pytest.raises(ValueError, match="max_steps must be an integer >= 1"):
            trace_branch(seed, max_steps=bad)


@pytest.mark.parametrize("p, gamma", [
    (p, gamma) for p in (2.0, 1.0, math.nan, 3.0)
    for gamma in (-1.0, math.nan, math.inf, 0.5) if (p, gamma) != (3.0, 0.5)])
def test_seed_and_params_reject_p_and_gamma_alike(p, gamma):
    with pytest.raises(ValueError) as seed_error:
        BranchSeed(k=2, which=1, gamma=gamma, p=p)
    with pytest.raises(ValueError) as params_error:
        ProblemParams(p=p, gamma=gamma, lam=1.0)
    assert str(seed_error.value) == str(params_error.value)


def assert_mirror_images(first, second):
    """Point by point, second is first reflected by i -> n + 1 - i (x -> L - x)."""
    assert first.termination == second.termination
    assert len(first.points) == len(second.points)
    for a, b in zip(first.points, second.points):
        assert abs(a.lam - b.lam) <= 1e-12 * abs(a.lam)
        scale = np.max(np.abs(a.u.values))
        assert np.max(np.abs(a.u.values - b.u.values[::-1])) <= 1e-12 * scale


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_even_k_sides_are_mirror_images(grid, p):
    # k = 2 has one hump of each sign, so reflection swaps the two sides
    steps = 60
    first, second = (trace_branch(BranchSeed(k=2, which=which, gamma=0.5, p=p),
                                  grid, steps) for which in (1, 2))
    assert len(first.points) == 60
    assert_mirror_images(first, second)


@pytest.mark.parametrize("which", [1, 2])
def test_odd_k_trace_is_its_own_mirror(grid, which):
    # k = 3 has humps +, -, + (or -, +, -), which reflection maps onto themselves
    gamma = 0.5 * gamma_window(grid, 3)
    branch = trace_branch(BranchSeed(k=3, which=which, gamma=gamma, p=3.0), grid, 60)
    assert len(branch.points) == 60
    assert_mirror_images(branch, branch)


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_trace_keeps_the_bits_of_one_solve_per_right_hand_side(grid, monkeypatch, p):
    # every lambda and u equal to the corrector arithmetic of
    # oracles.reference_bordered_solve: Field-built residuals and Jacobians,
    # one thomas_solve per right-hand side, a first pass from du = 0
    steps = 60
    seeds = [BranchSeed(k=2, which=which, gamma=0.5, p=p) for which in (1, 2)]
    got = [trace_branch(seed, grid, steps) for seed in seeds]
    monkeypatch.setattr(continuation, "_residual", reference_trace_residual(grid))
    monkeypatch.setattr(continuation, "_jacobian", reference_trace_jacobian)
    monkeypatch.setattr(continuation, "_bordered_solve", reference_bordered_solve)
    for seed, branch in zip(seeds, got):
        ref = trace_branch(seed, grid, steps)
        assert branch.termination == ref.termination
        assert len(branch.points) == len(ref.points) == 60
        for a, b in zip(branch.points, ref.points):
            assert a.lam == b.lam and a.s == b.s
            assert np.array_equal(a.u.values, b.u.values)


def test_cyclic_trace_matches_the_thomas_loop(monkeypatch):
    # at n = 399 the p = 3 trace's Jacobians factor by cyclic reduction; the
    # same traces on the Thomas loop end the same way, equal up to round-off
    grid = Grid(n_interior=399)
    steps = 60
    seeds = [BranchSeed(k=k, which=which, gamma=0.5, p=3.0)
             for k in (2, 3) for which in (1, 2)]
    got = [trace_branch(seed, grid, steps) for seed in seeds]
    monkeypatch.setattr(quasilinear, "tridiag_factor", _tridiag._thomas_factor)
    for seed, branch in zip(seeds, got):
        ref = trace_branch(seed, grid, steps)
        assert branch.termination == ref.termination
        assert len(branch.points) == len(ref.points) == 60
        for a, b in zip(branch.points, ref.points):
            assert abs(a.lam - b.lam) <= 1e-12 * abs(b.lam)
            scale = np.max(np.abs(b.u.values))
            assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [399, 799])
def test_high_mode_trace_reduces_only_while_its_pivots_are_safe(n):
    # near lambda_150 a later level of cyclic reduction would eliminate rows
    # with negative pivots: the factorization hands that level's system to
    # the Thomas loop instead of failing the seed
    branch = trace_branch(BranchSeed(k=150, which=1, gamma=0.0, p=3.0),
                          Grid(n_interior=n), 20)
    assert branch.termination.kind == "MaxSteps"
    assert len(branch.points) == 20


def test_newton_at_lambda_finds_trivial(grid, rng):
    lam = 0.5 * closed_form_eigenvalue(grid, 1)
    for gamma in (0.0, 0.5):
        params = ProblemParams(p=3.0, gamma=gamma, lam=lam)
        u0 = random_field(grid, rng, scale=0.05)
        sol = newton_at_lambda(u0, params)
        assert l2_norm(sol) <= 1e-8


def test_newton_at_lambda_reports_failure(grid, rng, monkeypatch):
    params = ProblemParams(p=3.0, gamma=0.0, lam=1.0)
    u0 = random_field(grid, rng)
    monkeypatch.setattr(monotone, "_MAX_ITER", 2)
    with pytest.raises(SolverError):
        newton_at_lambda(u0, params)


def test_newton_at_lambda_accepts_its_last_step(grid, rng, monkeypatch):
    # a run that needs exactly _MAX_ITER steps converges
    lam = 0.5 * closed_form_eigenvalue(grid, 1)
    params = ProblemParams(p=3.0, gamma=0.0, lam=lam)
    u0 = random_field(grid, rng, scale=0.05)
    counts = {"steps": 0}
    monkeypatch.setattr(monotone, "_jacobian", counting(
        counts, "steps", monotone._jacobian))
    newton_at_lambda(u0, params)
    assert counts["steps"] >= 2
    monkeypatch.setattr(monotone, "_MAX_ITER", counts["steps"])
    sol = newton_at_lambda(u0, params)
    assert l2_norm(sol) <= 1e-8


def test_newton_at_lambda_rejects_p_below_2(grid, monkeypatch):
    # the energy solve needs p > 2; it raises before any residual is taken
    counts = {"residuals": 0}
    monkeypatch.setattr(monotone, "_residual", counting(
        counts, "residuals", monotone._residual))
    params = ProblemParams(p=1.5, gamma=0.5, lam=0.5)
    with pytest.raises(ValueError, match=r"p=1\.5"):
        newton_at_lambda(Field.zeros(grid), params)
    assert counts["residuals"] == 0


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.5, 3.0, 4.0])
def test_census_subset_ends_classified(p):
    # one census trace per p: k = 3, gamma = 0.5 gamma_max, which = 1, n = 199
    grid = Grid(n_interior=199)
    gamma = 0.5 * gamma_window(grid, 3)
    branch = trace_branch(BranchSeed(k=3, which=1, gamma=gamma, p=p), grid, 60)
    assert isinstance(branch.termination, Termination)
    with pytest.raises(ValueError, match="termination kind"):
        Termination("Bogus")
    for kind, mu in (("MeetsTrivial", None), ("MaxSteps", 1.0)):
        with pytest.raises(ValueError, match="mu exactly when"):
            Termination(kind, mu=mu)
    s_end = branch.points[-1].s
    assert math.isfinite(s_end) and s_end > 0.0


def test_trivial_candidates_cover_every_admissible_mode(grid):
    # lambda_1, lambda_1 + gamma and both split values of k = 2..11
    cands = _trivial_candidates(grid, 0.5)
    assert len(cands) == 22
    assert all(math.isfinite(c) for c in cands)


def dense_bordered_step(jac, u, row_u, row_lam, r, c):
    # the bordered matrix assembled densely, constraint row prescaled by 1/h
    n = u.size
    h = jac.grid.h
    a = np.empty((n + 1, n + 1))
    a[:n, :n] = jac.as_matrix()
    a[:n, n] = -u
    a[n, :n] = row_u
    a[n, n] = row_lam / h
    sol = np.linalg.solve(a, np.concatenate([-r, [-c / h]]))
    return sol[:n], sol[n]


def bordered_error(jac, u, row_u, row_lam, r, c):
    """Relative distance of the block-elimination step from the dense one."""
    du, dlam = _bordered_solve(jac, u, row_u, row_lam, r, c)
    eu, elam = dense_bordered_step(jac, u, row_u, row_lam, r, c)
    err = math.sqrt(float(np.dot(du - eu, du - eu)) + (dlam - elam) ** 2)
    return err / math.sqrt(float(np.dot(eu, eu)) + elam * elam)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(9, 400),
       p=st.one_of(st.floats(1.2, 1.9), st.floats(2.1, 5.0)),
       gamma=st.floats(0.0, 1.0), lam=st.floats(0.0, 60.0),
       amp=st.floats(1e-3, 2.0), seed=st.integers(0, 2**32 - 1))
def test_bordered_solve_matches_dense(n, p, gamma, lam, amp, seed):
    # the corrector's own Jacobians: tridiagonal for p > 2, plus rank one below
    grid = Grid(n_interior=n)
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(5) / np.arange(1, 6)
    u = sum(c * eigenpair(grid, j + 1).vector.values for j, c in enumerate(coef))
    u *= amp / weighted_l2(Field(grid, u))
    jac = _jacobian(u, gradient_values(u, grid.h), grid,
                    ProblemParams(p=p, gamma=gamma, lam=lam), p < 2.0)
    assert (jac.rank_one is not None) == (p < 2.0)
    row_u = u + rng.uniform(0.0, 1.0) * rng.standard_normal(n)
    r = 1e-3 * rng.standard_normal(n)
    c = 1e-3 * rng.standard_normal()
    assert bordered_error(jac, u, row_u, rng.uniform(-1.0, 1.0), r, c) <= 1e-10


@pytest.mark.parametrize("n", [199, 799, 3199])
@pytest.mark.parametrize("k", [1, 3])
def test_bordered_solve_at_a_discrete_eigenvalue(n, k):
    # J = A - lambda_k I is singular; the border row e_k makes the system regular
    grid = Grid(n_interior=n)
    h2 = grid.h * grid.h
    ek = eigenpair(grid, k)
    jac = Jacobian(grid, np.full(n, 2.0 / h2 - ek.value), np.full(n - 1, -1.0 / h2))
    r = 1e-6 * np.random.default_rng(k).standard_normal(n)
    assert bordered_error(jac, 1e-3 * ek.vector.values, ek.vector.values, 0.0,
                          r, 0.0) <= 1e-10


def count_sweeps(monkeypatch) -> dict:
    """Count the factorizations of Jacobian.factor and the calls of every
    solver it returns: the solves made after the factorization's own pass."""
    counts = {"factors": 0, "sweeps": 0}
    factor = Jacobian.factor

    def counted_factor(self, *rhs):
        counts["factors"] += 1
        solve, xs = factor(self, *rhs)
        return counting(counts, "sweeps", solve), xs

    monkeypatch.setattr(Jacobian, "factor", counted_factor)
    return counts


def test_bordered_solve_refines_only_when_needed(branch_p3_w1, monkeypatch):
    counts = count_sweeps(monkeypatch)
    # a corrector step of a p = 3 trace is well conditioned: y = J^{-1} u and
    # x = J^{-1}(-r) come out of the factorization, and no refinement sweep
    grid = branch_p3_w1.points[0].u.grid
    a, b = branch_p3_w1.points[50:52]
    du, dlam = b.u.values - a.u.values, b.lam - a.lam
    ds = math.sqrt(grid.h * float(np.dot(du, du)) + dlam * dlam)
    t_u, t_lam = du / ds, dlam / ds
    pred_u, pred_lam = a.u.values + 1.4 * ds * t_u, a.lam + 1.4 * ds * t_lam
    params = ProblemParams(p=3.0, gamma=0.5, lam=pred_lam)
    g = gradient_values(pred_u, grid.h)
    _bordered_solve(_jacobian(pred_u, g, grid, params, False), pred_u, t_u, t_lam,
                    _residual(pred_u, g, grid.h, params, 1.0), 0.0)
    assert counts == {"factors": 1, "sweeps": 0}
    # the singular J of test_bordered_solve_at_a_discrete_eigenvalue: bordering
    # alone loses digits, so the refinement pass runs
    for n in (199, 799):
        grid = Grid(n_interior=n)
        h2 = grid.h * grid.h
        ek = eigenpair(grid, 3)
        jac = Jacobian(grid, np.full(n, 2.0 / h2 - ek.value),
                       np.full(n - 1, -1.0 / h2))
        r = 1e-6 * np.random.default_rng(3).standard_normal(n)
        counts.update(factors=0, sweeps=0)
        _bordered_solve(jac, 1e-3 * ek.vector.values, ek.vector.values, 0.0, r, 0.0)
        assert counts == {"factors": 1, "sweeps": 1}


def test_conditional_refinement_keeps_p3_traces(monkeypatch):
    # against the always-refining arithmetic (a negative tolerance never
    # passes): same terminations and points, lambda and u within 1e-12
    grid = Grid(n_interior=199)
    steps = 60
    seeds = [BranchSeed(k=k, which=which, gamma=0.5, p=3.0)
             for k in (2, 3) for which in (1, 2)]
    conditional = [trace_branch(seed, grid, steps) for seed in seeds]
    monkeypatch.setattr(continuation, "_REFINE_TOL", -1.0)
    for seed, got in zip(seeds, conditional):
        ref = trace_branch(seed, grid, steps)
        assert got.termination == ref.termination
        assert len(got.points) == len(ref.points) == 60
        for a, b in zip(got.points, ref.points):
            assert abs(a.lam - b.lam) <= 1e-12 * abs(b.lam)
            scale = np.max(np.abs(b.u.values))
            assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-12 * scale


def test_singular_bordered_system_raises(grid):
    n = grid.n_interior
    e1, e2 = np.eye(n)[:2]
    ones = np.ones(n)
    cases = [
        (Jacobian(grid, np.zeros(n), np.zeros(n - 1)), e1, "zero pivot"),
        (Jacobian(grid, ones, np.zeros(n - 1)), e2, "zero Schur complement"),
        (Jacobian(grid, ones, np.zeros(n - 1), rank_one=(e1, -e1 / grid.h)), e1,
         "singular rank-one update"),
    ]
    for jac, row_u, why in cases:
        with pytest.raises(SolverError, match=f"singular bordered system: {why}"):
            _bordered_solve(jac, e1, row_u, 0.0, ones, 0.0)


def test_trace_makes_no_dense_solve(monkeypatch):
    def dense_solve(*args, **kwargs):
        raise AssertionError("numpy.linalg.solve called during a trace")

    monkeypatch.setattr(np.linalg, "solve", dense_solve)
    for p in (3.0, 1.5):
        branch = trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=p),
                              Grid(n_interior=99), 12)
        assert branch.termination.kind == "MaxSteps"
        assert len(branch.points) == 12


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_corrector_evaluates_each_trial_once(grid, monkeypatch, p):
    # the seed correction of a trace: one residual at the start, one per
    # line-search trial, none repeated
    counts = {"residuals": 0, "trials": 0}
    monkeypatch.setattr(continuation, "_residual", counting(
        counts, "residuals", continuation._residual))
    count_trials(monkeypatch, monotone, counts)
    pair = split_eigenvalues(grid, 2, 0.5)
    ek = eigenpair(grid, 2).vector
    alpha0 = 0.1
    _, _, iters, _, _, _ = _corrector(
        grid, p, 0.5, alpha0 * pair.v1.values, pair.lambda1,
        ek.values, 0.0, alpha0 * inner_l2(ek, pair.v1))
    assert iters >= 2
    assert counts["trials"] >= iters
    assert counts["residuals"] == 1 + counts["trials"]


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_trace_takes_one_gradient_per_corrector_iterate(grid, monkeypatch, p):
    # each corrector call, failed ones included, takes one gradient at its
    # start and one per line-search trial (which gives the trial's residual
    # and, once accepted, its Jacobian and the point's norms); nothing else
    # in the trace takes one
    counts = {"gradients": 0, "trials": 0}
    count_calls_by_name(monkeypatch, "gradient_values", counts, "gradients")
    count_trials(monkeypatch, monotone, counts)
    calls = []

    def recording(*args):
        before = dict(counts)
        try:
            return _corrector(*args)
        finally:
            calls.append((counts["gradients"] - before["gradients"],
                          counts["trials"] - before["trials"]))

    monkeypatch.setattr(continuation, "_corrector", recording)
    branch = trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=p), grid, 60)
    assert len(branch.points) == 60
    assert len(calls) >= len(branch.points)
    assert all(taken == 1 + trials for taken, trials in calls)
    assert counts["gradients"] == sum(taken for taken, _ in calls)


def test_corrector_tests_every_iterate_it_steps_to(grid, monkeypatch):
    # with an unreachable tolerance and a line search that never stalls, the
    # corrector takes _CORRECTOR_MAX_ITER = 13 steps and tests each of the 14
    # iterates, the last included, before it gives up
    counts = {"steps": 0, "tests": 0}
    step, loop = monotone.damped_step, continuation.newton

    def never_stalls(x, m0, directions, trial, slack=0.0):
        counts["steps"] += 1
        return step(x, m0, directions, trial, slack) or (x, trial(x)[1])

    def counted_loop(x, merit, data, trial, directions, converged, *args):
        return loop(x, merit, data, trial, directions,
                    counting(counts, "tests", converged), *args)

    monkeypatch.setattr(continuation, "_CORRECTOR_TOL", -1.0)
    monkeypatch.setattr(monotone, "damped_step", never_stalls)
    monkeypatch.setattr(continuation, "newton", counted_loop)
    pair = split_eigenvalues(grid, 2, 0.5)
    ek = eigenpair(grid, 2).vector
    with pytest.raises(SolverError, match="no corrector convergence in 13 iterations"):
        _corrector(grid, 3.0, 0.5, 0.1 * pair.v1.values, pair.lambda1,
                   ek.values, 0.0, 0.1 * inner_l2(ek, pair.v1))
    assert counts == {"steps": 13, "tests": 14}


def test_points_record_the_corrector_iterations(grid, monkeypatch):
    # each point's iterations is the step count of the _corrector call that
    # produced it, the seed's included
    taken = []

    def recording(*args):
        result = _corrector(*args)
        taken.append(result[2])
        return result

    monkeypatch.setattr(continuation, "_corrector", recording)
    for p in (3.0, 1.5):
        taken.clear()
        branch = trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=p), grid,
                              30)
        assert [pt.iterations for pt in branch.points] == taken
        assert min(taken) >= 1


def test_p3_traces_take_at_most_five_newton_steps_per_four_points(grid):
    # the quadratic start leaves most p > 2 points one Newton step; the
    # secant start took 1223 steps for these 800 points
    branches = [trace_branch(BranchSeed(k=k, which=which, gamma=0.5, p=3.0), grid)
                for k in (2, 3) for which in (1, 2)]
    points = [pt for branch in branches for pt in branch.points]
    assert len(points) == 800
    assert sum(pt.iterations for pt in points) <= 1.25 * len(points)


def test_p3_traces_take_at_most_27_newton_steps_per_25_points(grid):
    # the cubic start through four points; the quadratic start through three
    # took 912 steps for these 800 points
    branches = [trace_branch(BranchSeed(k=k, which=which, gamma=0.5, p=3.0), grid)
                for k in (2, 3) for which in (1, 2)]
    points = [pt for branch in branches for pt in branch.points]
    assert len(points) == 800
    assert sum(pt.iterations for pt in points) <= 1.08 * len(points)


def secant_start(p, history, s_next, pred_u, pred_lam):
    return pred_u, pred_lam


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_quadratic_start_moves_p_above_2_points_within_tolerance(grid, monkeypatch,
                                                                  p, k):
    # the cubic start does not change the equations the corrector solves, so
    # the points move only within the corrector tolerance
    seed = BranchSeed(k=k, which=1, gamma=0.5 * gamma_window(grid, k), p=p)
    got = trace_branch(seed, grid)
    monkeypatch.setattr(continuation, "_corrector_start", secant_start)
    ref = trace_branch(seed, grid)
    assert got.termination == ref.termination
    assert len(got.points) == len(ref.points)
    for a, b in zip(got.points, ref.points):
        assert abs(a.lam - b.lam) <= 1e-9 * abs(b.lam)
        assert abs(a.s - b.s) <= 1e-9
        assert weighted_l2(a.u - b.u) <= 1e-8


@pytest.mark.parametrize("which", [1, 2])
def test_transformed_trace_keeps_the_secant_start(grid, monkeypatch, which):
    seed = BranchSeed(k=2, which=which, gamma=0.5, p=1.5)
    got = trace_branch(seed, grid)
    monkeypatch.setattr(continuation, "_corrector_start", secant_start)
    ref = trace_branch(seed, grid)
    assert got.termination == ref.termination
    assert len(got.points) == len(ref.points)
    for a, b in zip(got.points, ref.points):
        assert a.lam == b.lam and a.s == b.s
        assert np.array_equal(a.u.values, b.u.values)
