"""Inverting the strongly monotone operators, globally (p > 2) and on a ball."""

import math
import tracemalloc

import numpy as np
import pytest

from fucik_branch import monotone
from fucik_branch.config import SolverConfig
from fucik_branch.grid import (Field, Grid, dual_norm, h10_norm, inner_l2,
                               laplacian_solve_values, norms)
from fucik_branch.monotone import (
    SolverError,
    ball_coercivity_bound,
    ball_coercivity_samples,
    check_vector_inequalities,
    default_ball_radius,
    monotonicity_sweep,
    solve_monotone,
    solve_monotone_ball,
)
from fucik_branch.quasilinear import (Jacobian, ProblemParams, energy,
                                      residual_original, residual_transformed)

from conftest import count_trials, counting, random_field, reference_sweep

P3 = ProblemParams(p=3.0, gamma=0.5, lam=0.0)
P15 = ProblemParams(p=1.5, gamma=0.5, lam=0.0)
# pairs per block of the sampled checks on the default grid
BLOCK = monotone._block_rows(Grid())


def operator_p3(u: Field) -> Field:
    return residual_original(u, P3)


def gradient_descent_minimizer(f: Field, params: ProblemParams,
                               max_iter: int = 20000) -> Field:
    """Independent oracle: Barzilai-Borwein descent on the energy.

    It steps along the H^1_0 (Sobolev) gradient (-Delta)^{-1}(Mu - f), with
    the BB step in the stiffness metric and an Armijo test on the energy; no
    Jacobian.
    """
    grid = f.grid

    def residual(u: Field) -> Field:
        return residual_original(u, params) - f

    def obj(u: Field) -> float:
        return energy(u, params) - inner_l2(f, u)

    u = Field.zeros(grid)
    r = residual(u)
    t = 1.0
    for _ in range(max_iter):
        if dual_norm(r) <= 1e-8:
            break
        g = Field(grid, laplacian_solve_values(grid, r.values))
        val, slope = obj(u), inner_l2(r, g)
        step = t
        for _ in range(60):
            u_try = u - step * g
            if obj(u_try) <= val - 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        r_new = residual(u_try)
        du = u_try - u
        # <du, dg>_{1,2} = <du, r_new - r>_2, since (-Delta) g = r
        denom = inner_l2(du, r_new - r)
        t = h10_norm(du) ** 2 / denom if denom > 0.0 else 1.0
        u, r = u_try, r_new
    return u


def test_solve_monotone_zero(grid):
    report = solve_monotone(Field.zeros(grid), P3)
    assert h10_norm(report.solution) <= 1e-9
    assert report.final_residual <= 1e-9
    assert report.ball_radius_used == math.inf


def test_solve_monotone_manufactured(grid, rng):
    for _ in range(3):
        u_star = random_field(grid, rng)
        f = operator_p3(u_star)
        report = solve_monotone(f, P3)
        assert h10_norm(report.solution - u_star) <= 1e-7
        assert report.final_residual <= 1e-9
        assert report.coercivity_estimate > 0.0


def test_solve_monotone_unique_from_random_starts(grid, rng):
    f = Field.from_function(grid, lambda x: math.sin(2.0 * x))
    solutions = []
    for _ in range(5):
        u0 = random_field(grid, rng, scale=2.0)
        report = solve_monotone(f, P3, u0=u0)
        assert report.final_residual <= 1e-9
        solutions.append(report.solution)
    for sol in solutions[1:]:
        assert h10_norm(sol - solutions[0]) <= 1e-7


def test_solve_monotone_matches_gradient_descent(grid):
    f = Field.from_function(grid, lambda x: math.sin(2.0 * x))
    newton = solve_monotone(f, P3).solution
    descent = gradient_descent_minimizer(f, P3)
    assert h10_norm(newton - descent) <= 1e-5


def test_solve_monotone_rejects_small_p(grid):
    with pytest.raises(ValueError):
        solve_monotone(Field.zeros(grid), P15)


def test_inverse_is_nonexpansive(grid, rng):
    # coercivity of the -Delta part gives ||M^-1 f - M^-1 g||_{1,2} <= ||f-g|| dual
    f = Field.from_function(grid, lambda x: math.sin(2.0 * x))
    base = solve_monotone(f, P3)
    for _ in range(100):
        df = random_field(grid, rng, scale=1e-2)
        shifted = solve_monotone(f + df, P3, u0=base.solution)
        ratio = h10_norm(shifted.solution - base.solution) / dual_norm(df)
        assert ratio <= 1.0 + 1e-5


def test_monotonicity_sweep_positive(grid):
    worst, violations = monotonicity_sweep(P3, n_pairs=2000)
    assert violations == 0
    assert worst >= 2.0 ** (2.0 - 3.0) * (1.0 - 1e-9)


@pytest.mark.parametrize("n_pairs", sorted({1, 63, 64, 65, BLOCK - 1, BLOCK,
                                             BLOCK + 1, 2000}))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monotonicity_sweep_matches_pair_loop(grid, n_pairs, seed):
    worst, violations = monotonicity_sweep(
        P3, n_pairs=n_pairs, rng=np.random.default_rng(seed))
    ref_worst, ref_violations = reference_sweep(
        P3, n_pairs, np.random.default_rng(seed), grid)
    assert worst == pytest.approx(ref_worst, rel=1e-12, abs=0.0)
    assert violations == ref_violations


def test_sampled_checks_run_in_bounded_memory():
    # all 10,000 pairs at once would take 16 MB for each (pairs, n) array
    cap = 4 * 2**20

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: monotonicity_sweep(P3, n_pairs=10_000)) < cap
    assert peak(lambda: default_ball_radius(P15, grid=Grid(n_interior=799))) < cap


def test_monotonicity_sweep_needs_p_above_2():
    with pytest.raises(ValueError):
        monotonicity_sweep(P15, n_pairs=10)


def test_vector_inequalities_report():
    for p in (2.5, 3.0, 4.0):
        report = check_vector_inequalities(p, 100000)
        floor = 2.0 ** (2.0 - p)
        assert report.violations == 0
        assert report.c1_floor == pytest.approx(floor, rel=1e-15)
        assert report.c1_emp >= floor * (1.0 - 1e-9)
        assert report.c1_emp <= floor * (1.0 + 1e-6)  # antipodal pairs attain it
        assert 0.0 < report.c2_emp <= (p - 1.0) * (1.0 + 1e-9)


def test_vector_inequality_antipodal_ratio():
    # x2 = -x1 = unit vector: the inequality-(a) ratio is exactly 2^{2-p}
    p = 3.0
    e = np.array([0.6, 0.8])
    d = -e - e
    dphi = np.linalg.norm(-e) ** (p - 2.0) * (-e) - np.linalg.norm(e) ** (p - 2.0) * e
    ratio = float(np.dot(d, dphi)) / np.linalg.norm(d) ** p
    assert ratio == pytest.approx(2.0 ** (2.0 - p), rel=1e-12)


def test_vector_inequalities_preconditions():
    with pytest.raises(ValueError):
        check_vector_inequalities(1.5, 100000)
    with pytest.raises(ValueError):
        check_vector_inequalities(3.0, 100)


def test_ball_solve_zero(grid):
    report = solve_monotone_ball(Field.zeros(grid), P15, radius=0.5)
    assert h10_norm(report.solution) <= 1e-9
    assert report.ball_radius_used == 0.5


def test_ball_solve_manufactured(grid, rng):
    r = default_ball_radius(P15, grid=grid)
    for _ in range(3):
        v_star = random_field(grid, rng)
        v_star = (0.5 * r / h10_norm(v_star)) * v_star
        f = residual_transformed(v_star, P15)
        report = solve_monotone_ball(f, P15, radius=r)
        assert h10_norm(report.solution - v_star) <= 1e-7
        assert report.final_residual <= 1e-9
        assert report.coercivity_estimate > 0.0
        assert report.ball_radius_used == r


def test_ball_solve_detects_escape(grid, rng):
    r = 0.25
    v_star = random_field(grid, rng)
    v_star = (8.0 * r / h10_norm(v_star)) * v_star
    f = residual_transformed(v_star, P15)
    with pytest.raises(SolverError):
        solve_monotone_ball(f, P15, radius=r)


def test_ball_solve_rejects_large_p(grid):
    with pytest.raises(ValueError):
        solve_monotone_ball(Field.zeros(grid), P3, radius=0.5)


def test_ball_coercivity_increases_toward_one(grid):
    r0 = default_ball_radius(P15, grid=grid)
    bounds = [ball_coercivity_bound(P15, r0 * 0.5**i,
                                    rng=np.random.default_rng(7), grid=grid)
              for i in range(4)]
    assert bounds[0] >= 0.5
    assert all(b > a for a, b in zip(bounds, bounds[1:]))
    assert all(b < 1.0 for b in bounds)
    # the certified deficit scales exactly with r^2 on the same pair set
    deficits = [1.0 - b for b in bounds]
    for a, b in zip(deficits, deficits[1:]):
        assert a == pytest.approx(4.0 * b, rel=1e-6)


def reference_ball_samples(params: ProblemParams, r: float, n_pairs: int,
                           rng, grid: Grid) -> np.ndarray:
    """ball_coercivity_samples written as a loop over pairs of Fields."""
    p = params.p

    def ball_field(radius: float) -> Field:
        vals = rng.standard_normal(grid.n_interior)
        scale = radius * rng.uniform(0.2, 1.0) / h10_norm(Field(grid, vals))
        return Field(grid, vals * scale)

    def certified(a: Field, b: Field) -> float:
        d = a - b
        denom = h10_norm(d) ** 2
        if denom == 0.0:
            return math.inf
        cross = abs(h10_norm(a) ** (4.0 - p) - h10_norm(b) ** (4.0 - p)) \
            * norms(b, p).w1p ** (p - 1.0) * norms(d, p).w1p
        return 1.0 - cross / denom

    bounds = []
    n_far = n_pairs // 2
    for _ in range(n_far):
        a = ball_field(r)
        bounds.append(certified(a, ball_field(r)))
    for _ in range(n_pairs - n_far):
        a = ball_field(0.9 * r)
        step = rng.standard_normal(grid.n_interior)
        hn = h10_norm(Field(grid, step))
        if hn == 0.0:
            continue
        bounds.append(certified(a, Field(grid, a.values + (0.05 * r / hn) * step)))
    return np.asarray(bounds)


class ZeroedDraws:
    """A seeded generator whose standard_normal calls with the given indices
    return zeros; both draw styles of the sampled checks see the same stream."""

    def __init__(self, seed: int, zeroed: set[int]):
        self.rng = np.random.default_rng(seed)
        self.zeroed = zeroed
        self.calls = 0

    def uniform(self, low: float, high: float) -> float:
        return self.rng.uniform(low, high)

    def standard_normal(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        x = self.rng.standard_normal(n)
        if self.calls in self.zeroed:
            x[:] = 0.0
        self.calls += 1
        if out is None:
            return x
        out[...] = x
        return out


@pytest.mark.parametrize("n", [9, 199, 799])
@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
def test_ball_coercivity_samples_match_pair_loop(n, p):
    grid = Grid(n_interior=n)
    params = ProblemParams(p=p, gamma=0.5, lam=0.0)
    n_pairs = 2 * monotone._block_rows(grid) + 3
    bounds = ball_coercivity_samples(params, 0.3, n_pairs,
                                     np.random.default_rng(n), grid)
    ref = reference_ball_samples(params, 0.3, n_pairs,
                                 np.random.default_rng(n), grid)
    assert bounds.shape == ref.shape == (n_pairs,)
    np.testing.assert_allclose(bounds, ref, rtol=1e-12, atol=0.0)


def test_ball_coercivity_samples_drop_zero_steps(grid):
    # normal draws 0 .. 2*n_far-1 belong to the far pairs; each near pair
    # then draws its field and its step
    n_pairs, n_far = 2 * BLOCK + 5, BLOCK + 2
    zeroed = {2 * n_far + 2 * i + 1 for i in (0, 7, BLOCK + 1)}
    bounds = ball_coercivity_samples(P15, 0.3, n_pairs, ZeroedDraws(3, zeroed), grid)
    ref = reference_ball_samples(P15, 0.3, n_pairs, ZeroedDraws(3, zeroed), grid)
    assert bounds.shape == ref.shape == (n_pairs - 3,)
    np.testing.assert_allclose(bounds, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [199, 399, 799])
def test_ball_pairs_scale_exactly_by_powers_of_two(n):
    grid = Grid(n_interior=n)
    unit = list(monotone._ball_pairs(grid, 1.0, 64, np.random.default_rng(7)))
    for j in range(1, 12):
        r = 0.5 ** j
        drawn = monotone._ball_pairs(grid, r, 64, np.random.default_rng(7))
        for (a1, b1), (a, b) in zip(unit, drawn, strict=True):
            assert np.array_equal(r * a1, a) and np.array_equal(r * b1, b)


@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
def test_default_ball_radius_probes_fresh_draws(p):
    params = ProblemParams(p=p, gamma=0.5, lam=0.0)
    for grid in (Grid(), Grid(n_interior=799)):
        r = 1.0
        while ball_coercivity_bound(params, r, rng=np.random.default_rng(7),
                                    grid=grid) < 0.5:
            r *= 0.5
        assert default_ball_radius(params, grid=grid) == r


def test_ball_coercivity_samples_of_no_pairs(grid):
    assert ball_coercivity_samples(P15, 0.5, 0, np.random.default_rng(0), grid).shape == (0,)


def test_ball_coercivity_rejects_bad_input(grid):
    with pytest.raises(ValueError):
        ball_coercivity_bound(P3, 0.5, grid=grid)
    with pytest.raises(ValueError):
        ball_coercivity_bound(P15, -1.0, grid=grid)


def test_out_of_iterations_reports_the_steps_taken(grid, rng):
    # an unreachable tolerance: both solves take every one of max_iter steps
    config = SolverConfig(tol_abs=1e-300, tol_rel=1e-300, max_iter=3)
    f = Field.from_function(grid, lambda x: math.sin(2.0 * x))
    with pytest.raises(SolverError, match="no convergence in 3 iterations") as exc:
        solve_monotone(f, P3, config)
    assert exc.value.report.iterations == 3
    r = default_ball_radius(P15, grid=grid)
    v_star = random_field(grid, rng)
    f = residual_transformed((0.5 * r / h10_norm(v_star)) * v_star, P15)
    with pytest.raises(SolverError, match="no convergence in 3 iterations") as exc:
        solve_monotone_ball(f, P15, config, radius=r)
    assert exc.value.report.iterations == 3


def test_ball_solve_falls_back_to_picard(grid, rng, monkeypatch):
    def failing_solve(self, rhs):
        raise ValueError("singular")

    monkeypatch.setattr(Jacobian, "solve_values", failing_solve)
    r = default_ball_radius(P15, grid=grid)
    v_star = random_field(grid, rng)
    v_star = (0.5 * r / h10_norm(v_star)) * v_star
    report = solve_monotone_ball(residual_transformed(v_star, P15), P15, radius=r)
    assert h10_norm(report.solution - v_star) <= 1e-7
    assert report.final_residual <= 1e-9


def test_ball_solve_evaluates_each_trial_once(grid, rng, monkeypatch):
    # one residual at the start, one per line-search trial, none repeated
    counts = {"residuals": 0, "trials": 0}
    monkeypatch.setattr(monotone, "residual_transformed", counting(
        counts, "residuals", residual_transformed))
    count_trials(monkeypatch, monotone, counts)
    r = default_ball_radius(P15, grid=grid)
    v_star = random_field(grid, rng)
    v_star = (0.5 * r / h10_norm(v_star)) * v_star
    f = residual_transformed(v_star, P15)
    report = solve_monotone_ball(f, P15, radius=r)
    assert report.iterations >= 2
    assert counts["trials"] >= report.iterations
    assert counts["residuals"] == 1 + counts["trials"]
