"""Inverting the strongly monotone operators, globally (p > 2) and on a ball."""

import math
import tracemalloc

import numpy as np
import pytest

from fucik_branch import monotone
from fucik_branch.grid import (Field, Grid, dual_norm, h10_norm, inner_l2,
                               laplacian_solve_values, w1p_norm)
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
from fucik_branch.spectrum import closed_form_eigenvalue

from conftest import (count_calls_by_name, count_trials, counting, field_of, random_field,
                      reference_sweep)
from oracles import (reference_blocked_ball_samples, reference_check_vector_inequalities,
                     reference_monotonicity_sweep, reference_solve_monotone,
                     reference_solve_monotone_ball)

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


def test_solve_monotone_solves_at_the_lambda_of_its_params(grid):
    # below lambda_1 the energy with -lam/2 ||u||^2 stays convex
    params = ProblemParams(p=3.0, gamma=0.5, lam=0.5 * closed_form_eigenvalue(grid, 1))
    u_star = field_of(grid, lambda x: math.sin(x) + math.sin(2.0 * x))
    report = solve_monotone(residual_original(u_star, params), params)
    assert h10_norm(report.solution - u_star) <= 1e-7
    assert report.coercivity_estimate > 0.0


def test_solve_monotone_unique_from_random_starts(grid, rng):
    f = field_of(grid, lambda x: math.sin(2.0 * x))
    solutions = []
    for _ in range(5):
        u0 = random_field(grid, rng, scale=2.0)
        report = solve_monotone(f, P3, u0=u0)
        assert report.final_residual <= 1e-9
        solutions.append(report.solution)
    for sol in solutions[1:]:
        assert h10_norm(sol - solutions[0]) <= 1e-7


def test_solve_monotone_matches_gradient_descent(grid):
    f = field_of(grid, lambda x: math.sin(2.0 * x))
    newton = solve_monotone(f, P3).solution
    descent = gradient_descent_minimizer(f, P3)
    assert h10_norm(newton - descent) <= 1e-5


def test_solve_monotone_rejects_small_p(grid):
    with pytest.raises(ValueError):
        solve_monotone(Field.zeros(grid), P15)


def test_inverse_is_nonexpansive(grid, rng):
    # coercivity of the -Delta part gives ||M^-1 f - M^-1 g||_{1,2} <= ||f-g|| dual
    f = field_of(grid, lambda x: math.sin(2.0 * x))
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


@pytest.mark.parametrize("n_pairs", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2000])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_monotonicity_sweep_bit_equal_to_reference(n_pairs, p):
    params = ProblemParams(p=p, gamma=0.5, lam=0.0)
    for seed in (0, 6, 43):
        assert monotonicity_sweep(params, n_pairs, np.random.default_rng(seed)) \
            == reference_monotonicity_sweep(params, n_pairs,
                                            np.random.default_rng(seed))


def test_random_scale_is_the_uniform_scale():
    # Generator.uniform(low, high) returns low + (high - low) * random(), and
    # both take one double from the stream, so the sweep's scales and the
    # state after them match the rng.uniform(-2, 2) draws
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2000):
            x, y = a.uniform(-2.0, 2.0), -2.0 + 4.0 * b.random()
            assert x == y and 10.0 ** x == 10.0 ** y
            assert np.array_equal(a.standard_normal(3), b.standard_normal(3))
        assert a.bit_generator.state == b.bit_generator.state


# 2 * _BLOCK_VALUES + 3 ends each set in a short block; 20,000 splits the R^1
# set into blocks of 8192 + 1808 rows and the R^2 set into 4096 * 2 + 1808
@pytest.mark.parametrize("n_samples", [10_000, 10_001, 100_000,
                                       2 * monotone._BLOCK_VALUES + 3, 20_000])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_vector_inequalities_bit_equal_to_reference(n_samples, p):
    for seed in (0, 5, 42):
        report = check_vector_inequalities(p, n_samples, np.random.default_rng(seed))
        ref = reference_check_vector_inequalities(p, n_samples,
                                                  np.random.default_rng(seed))
        # a VectorInequalityReport compares equal when every field does
        assert report == ref


class CoincidingDraws:
    """A seeded generator for check_vector_inequalities whose second and
    fourth standard_normal draws (x2 and y2) repeat the given rows of the
    draw before them, so those pairs coincide."""

    def __init__(self, seed: int, rows: list[int]):
        self.rng = np.random.default_rng(seed)
        self.rows = rows
        self.last = None

    def uniform(self, low, high, size=None):
        return self.rng.uniform(low, high, size)

    def standard_normal(self, size):
        x = self.rng.standard_normal(size)
        if self.last is not None:
            x[self.rows] = self.last[self.rows]
            self.last = None
        else:
            self.last = x
        return x


@pytest.mark.parametrize("rows, n_samples", [
    pytest.param([], 10_000, id="rows0"),
    pytest.param([0, 1, 500, 4999], 10_000, id="rows1"),
    pytest.param([64, 65, 3000], 10_000, id="rows2"),
    # the last and first rows of adjacent blocks: 4096 rows per R^2 block,
    # 8192 per R^1 block
    pytest.param([4095, 4096, 8191, 8192], 20_000, id="rows3")])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_vector_inequalities_skip_coinciding_pairs_like_reference(p, rows, n_samples):
    # a coinciding pair left in would give ratio (a) = 0/0 and a NaN c1_emp;
    # rows = [] takes the path on which every pair is kept
    report = check_vector_inequalities(p, n_samples, CoincidingDraws(3, rows))
    ref = reference_check_vector_inequalities(p, n_samples, CoincidingDraws(3, rows))
    assert report == ref
    assert math.isfinite(report.c1_emp) and report.violations == 0


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
    # 1,000 pairs at n = 799 at once would take 6.4 MB for each (pairs, n) array
    assert peak(lambda: ball_coercivity_samples(
        P15, 0.5, 1_000, np.random.default_rng(7), Grid(n_interior=799))) < cap
    # evaluating all 100,000 vector pairs at once peaks at 8.5 MiB
    assert peak(lambda: check_vector_inequalities(3.0, 100_000)) < cap
    # the draw order fixes the inputs: at 10^6 samples the R^2 set's scale
    # column, x1 and x2 take 40 bytes per pair (84.5 MiB peak all at once)
    n2 = 1_000_000 - 1_000_000 // 2
    assert peak(lambda: check_vector_inequalities(3.0, 1_000_000)) < 40 * n2 + cap


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


@pytest.mark.parametrize("p", [60.0, 100.0])
def test_vector_inequalities_refuse_exponents_that_leave_the_double_range(p):
    # |x|^{p-2} underflows for the small pairs (the ratio (b) turns inf, with
    # false violations) and overflows for the large ones (c1_emp was inf at 100)
    with pytest.raises(ValueError, match=f"at p={p} "):
        check_vector_inequalities(p, 100_000)


def test_vector_inequalities_keep_an_infinite_ratio_a_like_reference():
    # seed 12 at p = 43 draws a pair whose |x2 - x1|^p underflows to 0 (the
    # reference warns of the division): its ratio (a) is +inf, which sets
    # neither c1_emp nor a violation, so the report is the reference's and finite
    report = check_vector_inequalities(43.0, 100_000, np.random.default_rng(12))
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        ref = reference_check_vector_inequalities(43.0, 100_000, np.random.default_rng(12))
    assert report == ref
    assert math.isfinite(report.c1_emp) and math.isfinite(report.c2_emp)
    assert report.violations == 0


def test_vector_inequalities_preconditions():
    with pytest.raises(ValueError):
        check_vector_inequalities(1.5, 100000)
    with pytest.raises(ValueError):
        check_vector_inequalities(3.0, 100)
    # a NaN exponent used to pass with c1_emp = inf and no violations
    with pytest.raises(ValueError, match="got p=nan"):
        check_vector_inequalities(math.nan, 100000)


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
            * w1p_norm(b, p) ** (p - 1.0) * w1p_norm(d, p)
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


@pytest.mark.parametrize("n", [9, 199, 799])
@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
def test_ball_coercivity_samples_bit_equal_to_blocked_reference(n, p):
    grid = Grid(n_interior=n)
    params = ProblemParams(p=p, gamma=0.5, lam=0.0)
    block = monotone._block_rows(grid)
    # far and near pairs each fill one block, then spill into a second
    for n_pairs in sorted({1, 2, 3, 64, 2 * block - 1, 2 * block, 2 * block + 3}):
        bounds = ball_coercivity_samples(params, 0.3, n_pairs,
                                         np.random.default_rng(n_pairs), grid)
        ref = reference_blocked_ball_samples(params, 0.3, n_pairs,
                                             np.random.default_rng(n_pairs), grid)
        assert np.array_equal(bounds, ref)
    n_far = block + 2
    zeroed = {2 * n_far + 2 * i + 1 for i in (0, 7, block + 1)}
    bounds = ball_coercivity_samples(params, 0.3, 2 * block + 5,
                                     ZeroedDraws(3, zeroed), grid)
    ref = reference_blocked_ball_samples(params, 0.3, 2 * block + 5,
                                         ZeroedDraws(3, zeroed), grid)
    assert bounds.shape == (2 * block + 2,) and np.array_equal(bounds, ref)


@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 1.8, 1.95])
def test_default_ball_radius_is_proven_coercive(p):
    # the proof bounds every pair's deficit by (4-p) L^{1-p/2} r^2, 0.5 at
    # r*; sampled deficits stay below 0.82 of it over these p, L and n and
    # seeds 0..19 (about 6 s), of which this runs a tenth
    params = ProblemParams(p=p, gamma=0.5, lam=0.0)
    for i, length in enumerate((0.1, 1.0, math.pi, 10.0, 100.0)):
        for n in (3, 9, 199, 799):
            grid = Grid(length=length, n_interior=n)
            r = default_ball_radius(params, grid=grid)
            for seed in (i, i + 10):
                bound = ball_coercivity_bound(params, r, rng=np.random.default_rng(seed),
                                              grid=grid)
                assert 0.5 <= bound < 1.0


def test_default_ball_radius_is_the_closed_form():
    for p in (1.05, 1.2, 1.5, 1.8, 1.95):
        for length in (0.1, 1.0, math.pi, 10.0, 100.0):
            r = (2.0 * (4.0 - p) * length ** (1.0 - p / 2.0)) ** -0.5
            radii = {default_ball_radius(ProblemParams(p=p, gamma=gamma, lam=lam),
                                         grid=Grid(length=length, n_interior=n))
                     for n in (3, 199, 799)
                     for gamma, lam in ((0.0, 0.0), (0.5, 3.0), (2.0, -1.0))}
            assert len(radii) == 1 and radii.pop() == pytest.approx(r, rel=1e-15)
    # the default grid has length pi
    assert default_ball_radius(P15) == default_ball_radius(P15, grid=Grid(n_interior=9))
    assert default_ball_radius(P15) == pytest.approx(0.38759, abs=1e-5)
    for p in (2.0, 3.0):
        with pytest.raises(ValueError):
            default_ball_radius(ProblemParams(p=p, gamma=0.5, lam=0.0))


def test_ball_coercivity_samples_of_no_pairs(grid):
    # no pairs leave the bound without a minimum; both refuse them by name
    for n_pairs in (0, -1):
        with pytest.raises(ValueError, match=f"^n_pairs must be at least 1, got {n_pairs}$"):
            ball_coercivity_samples(P15, 0.5, n_pairs, np.random.default_rng(0), grid)
        with pytest.raises(ValueError, match=f"^n_pairs must be at least 1, got {n_pairs}$"):
            ball_coercivity_bound(P15, 0.3, n_pairs=n_pairs, grid=grid)


def test_ball_coercivity_bound_of_an_empty_sample(grid):
    # one nearby pair whose step draw is zero is dropped, which leaves no bound
    assert ball_coercivity_samples(P15, 0.3, 1, ZeroedDraws(3, {1}), grid).size == 0
    with pytest.raises(ValueError, match="^no pair sampled"):
        ball_coercivity_bound(P15, 0.3, n_pairs=1, rng=ZeroedDraws(3, {1}), grid=grid)


def test_ball_coercivity_rejects_bad_input(grid):
    with pytest.raises(ValueError):
        ball_coercivity_bound(P3, 0.5, grid=grid)
    for r in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^ball radius must be finite and positive$"):
            ball_coercivity_bound(P15, r, grid=grid)
        with pytest.raises(ValueError, match="^ball radius must be finite and positive$"):
            ball_coercivity_samples(P15, r, 4, np.random.default_rng(0), grid)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_ball_solve_rejects_a_radius_that_is_not_finite_and_positive(grid, radius,
                                                                     monkeypatch):
    # refused before any work: no gradient is taken
    def no_work(*args):
        raise AssertionError("the solve started")

    monkeypatch.setattr(monotone, "gradient_values", no_work)
    with pytest.raises(ValueError, match="^ball radius must be finite and positive$"):
        solve_monotone_ball(Field.zeros(grid), P15, radius=radius)


def test_out_of_iterations_reports_the_steps_taken(grid, rng, monkeypatch):
    # an unreachable tolerance: both solves take every one of _MAX_ITER steps
    monkeypatch.setattr(monotone, "_MAX_ITER", 3)
    tols = {"tol_abs": 1e-300, "tol_rel": 1e-300}
    f = field_of(grid, lambda x: math.sin(2.0 * x))
    with pytest.raises(SolverError, match="no convergence in 3 iterations") as exc:
        solve_monotone(f, P3, **tols)
    assert exc.value.report.iterations == 3
    r = default_ball_radius(P15, grid=grid)
    v_star = random_field(grid, rng)
    f = residual_transformed((0.5 * r / h10_norm(v_star)) * v_star, P15)
    with pytest.raises(SolverError, match="no convergence in 3 iterations") as exc:
        solve_monotone_ball(f, P15, radius=r, **tols)
    assert exc.value.report.iterations == 3


@pytest.mark.parametrize("name", ["tol_abs", "tol_rel"])
def test_tolerance_must_be_finite_and_positive(grid, name):
    f = field_of(grid, lambda x: math.sin(2.0 * x))
    assert solve_monotone(f, P3, **{name: 0.5}).iterations >= 0
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1e-3):
        for solve, params in ((solve_monotone, P3), (solve_monotone_ball, P15)):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                solve(Field.zeros(grid), params, **{name: bad})


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
    monkeypatch.setattr(monotone, "_residual", counting(
        counts, "residuals", monotone._residual))
    count_trials(monkeypatch, monotone, counts)
    r = default_ball_radius(P15, grid=grid)
    v_star = random_field(grid, rng)
    v_star = (0.5 * r / h10_norm(v_star)) * v_star
    f = residual_transformed(v_star, P15)
    report = solve_monotone_ball(f, P15, radius=r)
    assert report.iterations >= 2
    assert counts["trials"] >= report.iterations
    assert counts["residuals"] == 1 + counts["trials"]


def test_ball_solve_takes_one_dual_norm_per_trial(grid, rng, monkeypatch):
    # one for the tolerance on f, one at the start, one per line-search
    # trial; an accepted trial's norm is reused, not recomputed
    counts = {"dual_norms": 0, "trials": 0}
    monkeypatch.setattr(monotone, "dual_norm_values", counting(
        counts, "dual_norms", monotone.dual_norm_values))
    count_trials(monkeypatch, monotone, counts)
    r = default_ball_radius(P15, grid=grid)
    v_star = random_field(grid, rng)
    v_star = (0.5 * r / h10_norm(v_star)) * v_star
    report = solve_monotone_ball(residual_transformed(v_star, P15), P15, radius=r)
    assert report.iterations >= 2
    assert counts["dual_norms"] == 2 + counts["trials"]


def test_stalled_line_search_is_reported_as_a_stall(grid, monkeypatch):
    # the first step goes through, the second finds no descent
    step = monotone.damped_step
    calls = {"steps": 0}

    def stalling_step(*args, **kwargs):
        calls["steps"] += 1
        return step(*args, **kwargs) if calls["steps"] == 1 else None

    monkeypatch.setattr(monotone, "damped_step", stalling_step)
    f = field_of(grid, lambda x: math.sin(2.0 * x))
    with pytest.raises(SolverError, match="line search stalled") as exc:
        solve_monotone(f, P3)
    assert exc.value.report.iterations == 1
    assert calls["steps"] == 2


def halving_loop(counts: dict) -> tuple:
    """trial and directions of a scalar newton run: merit x^2 and the
    direction -x/2 of slope -x^2, so every step halves x at t = 1 and no
    iterate reaches 0. counts["trials"] and counts["steps"] count their calls."""
    def trial(y: float) -> tuple[float, float]:
        counts["trials"] += 1
        return y * y, y

    def directions(x: float, merit: float, data) -> list[tuple[float, float]]:
        counts["steps"] += 1
        return [(-0.5 * x, -x * x)]

    return trial, directions


def never(data) -> bool:
    return False


def test_newton_takes_no_step_from_a_converged_start():
    counts = {"trials": 0, "steps": 0, "tests": 0}
    trial, directions = halving_loop(counts)
    converged = counting(counts, "tests", lambda data: True)
    assert monotone.newton(1.0, 1.0, 1.0, trial, directions, converged, 5) \
        == (1.0, 1.0, 1.0, 0, None)
    assert counts == {"trials": 0, "steps": 0, "tests": 1}


def test_newton_with_an_unreachable_tolerance_takes_max_iter_steps():
    # max_iter steps and max_iter + 1 tests, the last iterate tested returned
    counts = {"trials": 0, "steps": 0, "tests": 0}
    trial, directions = halving_loop(counts)
    x, merit, data, steps, stop = monotone.newton(
        1.0, 1.0, 1.0, trial, directions, counting(counts, "tests", never), 6)
    assert stop is monotone.OUT_OF_STEPS
    assert steps == counts["steps"] == counts["trials"] == 6
    assert counts["tests"] == 7
    assert (x, merit, data) == (2.0 ** -6, 2.0 ** -12, 2.0 ** -6)


def test_newton_reports_a_stall_as_a_stall():
    # the second direction is an ascent that claims descent, so every
    # trial of the second step fails
    counts = {"trials": 0, "steps": 0}
    trial, halving = halving_loop(counts)

    def directions(x, merit, data):
        d, slope = halving(x, merit, data)[0]
        return [(d if counts["steps"] == 1 else -d, slope)]

    x, merit, data, steps, stop = monotone.newton(1.0, 1.0, 1.0, trial, directions,
                                                  never, 5)
    assert stop is monotone.STALLED
    assert (x, merit, data, steps) == (0.5, 0.25, 0.5, 1)
    assert counts["trials"] == 1 + monotone.MAX_HALVINGS + 1


def test_newton_refused_step_leaves_the_pre_step_iterate():
    # accept keeps its own data for each step and refuses the second
    counts = {"trials": 0, "steps": 0}
    trial, directions = halving_loop(counts)

    def accept(x, data, x_new, data_new):
        if x_new < 0.3:
            raise SolverError(f"refused {x_new}")
        return "kept", data_new

    x, merit, data, steps, stop = monotone.newton(
        1.0, 1.0, ("kept", 1.0), trial, directions, never, 5, accept)
    assert isinstance(stop, SolverError) and str(stop) == "refused 0.25"
    assert (x, merit, data, steps) == (0.5, 0.25, ("kept", 0.5), 1)
    assert counts["steps"] == counts["trials"] == 2


@pytest.mark.parametrize("other", [Grid(length=2.0, n_interior=199), Grid(n_interior=99)],
                         ids=["same-n-other-length", "other-n"])
def test_solves_reject_u0_on_another_grid(grid, other):
    # u0 must live on f's grid: an equal node count is not enough
    f = field_of(grid, lambda x: math.sin(2.0 * x))
    u0 = field_of(other, lambda x: 0.01 * math.sin(x))
    with pytest.raises(ValueError, match="fields live on different grids"):
        solve_monotone(f, P3, u0=u0)
    with pytest.raises(ValueError, match="fields live on different grids"):
        solve_monotone_ball(f, P15, u0=u0)


def smooth_field(grid: Grid, rng: np.random.Generator, scale: float) -> Field:
    """A random combination of the first six sine modes, with H^1_0 norm scale."""
    x = grid.nodes
    vals = sum(rng.standard_normal() * np.sin(k * math.pi * x / grid.length) / k
               for k in range(1, 7))
    u = Field(grid, vals)
    return (scale / h10_norm(u)) * u


def report_bits(report) -> tuple:
    """Everything a SolveReport carries, floats as their exact hex."""
    return (report.solution.values.tobytes(), report.iterations,
            report.final_residual.hex(), report.coercivity_estimate.hex(),
            report.ball_radius_used.hex())


def error_bits(solve, *args, **kwargs) -> tuple:
    with pytest.raises(SolverError) as exc:
        solve(*args, **kwargs)
    return str(exc.value), report_bits(exc.value.report)


def outcome_bits(solve, *args, **kwargs) -> tuple:
    """report_bits of the solve, or its SolverError's message and report_bits."""
    try:
        return report_bits(solve(*args, **kwargs))
    except SolverError as exc:
        return str(exc), report_bits(exc.report)


@pytest.mark.parametrize("n", [199, 399, 799])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_solve_monotone_bit_identical_to_field_loop(p, n):
    # the array loop takes the Field loop's arithmetic, on the Thomas
    # (n = 199) and the cyclic-reduction (n = 399, 799) Jacobian solves
    grid = Grid(n_interior=n)
    rng = np.random.default_rng(round(10 * p) + n)
    params = ProblemParams(p=p, gamma=0.5, lam=0.5 * closed_form_eigenvalue(grid, 1))
    for scale in (0.1, 1.0, 5.0):
        f = residual_original(smooth_field(grid, rng, scale), params)
        u0 = random_field(grid, rng, scale=0.01)
        for start in (None, u0):
            new = solve_monotone(f, params, u0=start)
            assert new.iterations >= 2
            assert report_bits(new) == report_bits(
                reference_solve_monotone(f, params, u0=start))


@pytest.mark.parametrize("n", [199, 399, 799])
@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_ball_solve_bit_identical_to_field_loop(p, n):
    grid = Grid(n_interior=n)
    rng = np.random.default_rng(round(10 * p) + n)
    params = ProblemParams(p=p, gamma=0.5, lam=0.0)
    r = default_ball_radius(params, grid=grid)
    for scale in (0.1, 0.3, 0.5):
        f = residual_transformed(smooth_field(grid, rng, scale * r), params)
        u0 = smooth_field(grid, rng, 0.3 * r)
        for start in (None, u0):
            new = solve_monotone_ball(f, params, radius=r, u0=start)
            assert new.iterations >= 2
            assert report_bits(new) == report_bits(
                reference_solve_monotone_ball(f, params, radius=r, u0=start))


def test_picard_fallback_bit_identical_to_field_loop(grid, monkeypatch):
    def failing_solve(self, rhs):
        raise ValueError("singular")

    # Picard alone: the p > 2 solve runs out of iterations, the ball solve converges
    monkeypatch.setattr(Jacobian, "solve_values", failing_solve)
    rng = np.random.default_rng(3)
    f = residual_original(smooth_field(grid, rng, 1.0), P3)
    assert outcome_bits(solve_monotone, f, P3) == outcome_bits(reference_solve_monotone, f, P3)
    r = default_ball_radius(P15, grid=grid)
    f = residual_transformed(smooth_field(grid, rng, 0.5 * r), P15)
    assert outcome_bits(solve_monotone_ball, f, P15, radius=r) \
        == outcome_bits(reference_solve_monotone_ball, f, P15, radius=r)


def test_error_paths_bit_identical_to_field_loop(grid, rng, monkeypatch):
    r = default_ball_radius(P15, grid=grid)
    f3 = field_of(grid, lambda x: math.sin(2.0 * x))
    f15 = residual_transformed(smooth_field(grid, rng, 0.5 * r), P15)
    cases = [(solve_monotone, reference_solve_monotone, f3, P3, {}),
             (solve_monotone_ball, reference_solve_monotone_ball, f15, P15,
              {"radius": r})]
    # out of iterations
    with monkeypatch.context() as m:
        m.setattr(monotone, "_MAX_ITER", 3)
        tols = {"tol_abs": 1e-300, "tol_rel": 1e-300}
        for solve, reference, f, params, kw in cases:
            new = error_bits(solve, f, params, **kw, **tols)
            assert new[0].startswith("no convergence in 3 iterations")
            assert new[1][1] == 3
            assert new == error_bits(reference, f, params, **kw, **tols)
    # a line search that stalls on the second step
    step = monotone.damped_step
    for solve, reference, f, params, kw in cases:
        outcomes = []
        for fn in (solve, reference):
            calls = {"steps": 0}

            def stalling_step(*args, **kwargs):
                calls["steps"] += 1
                return step(*args, **kwargs) if calls["steps"] == 1 else None

            with monkeypatch.context() as m:
                m.setattr(monotone, "damped_step", stalling_step)
                outcomes.append(error_bits(fn, f, params, **kw))
        assert "line search stalled" in outcomes[0][0]
        assert outcomes[0][1][1] == 1
        assert outcomes[0] == outcomes[1]
    # an iterate that leaves the ball
    v_star = random_field(grid, rng)
    f = residual_transformed((8.0 * 0.25 / h10_norm(v_star)) * v_star, P15)
    new = error_bits(solve_monotone_ball, f, P15, radius=0.25)
    assert "left the coercivity ball" in new[0]
    assert new == error_bits(reference_solve_monotone_ball, f, P15, radius=0.25)


def count_solve_work(monkeypatch) -> dict:
    """Count gradients in every namespace the solves reach, the p > 2
    energies, the dual norms and the line-search trials."""
    counts = {"gradients": 0, "energies": 0, "dual_norms": 0, "trials": 0}
    count_calls_by_name(monkeypatch, "gradient_values", counts, "gradients")
    monkeypatch.setattr(monotone, "_energy", counting(counts, "energies", monotone._energy))
    monkeypatch.setattr(monotone, "dual_norm_values", counting(
        counts, "dual_norms", monotone.dual_norm_values))
    count_trials(monkeypatch, monotone, counts)
    return counts


@pytest.mark.parametrize("start", [False, True], ids=["default-start", "u0"])
def test_solve_monotone_takes_one_gradient_per_trial(grid, rng, monkeypatch, start):
    # one gradient at the start, one per trial (which gives its energy, and
    # the residual and Jacobian if accepted) and one per step for the
    # monotonicity sample; one energy at the start and one per trial
    f = residual_original(smooth_field(grid, rng, 2.0), P3)
    u0 = random_field(grid, rng, scale=0.01) if start else None
    counts = count_solve_work(monkeypatch)
    report = solve_monotone(f, P3, u0=u0)
    assert report.iterations >= 2
    assert counts["trials"] >= report.iterations
    assert counts["gradients"] == 1 + counts["trials"] + report.iterations
    assert counts["energies"] == 1 + counts["trials"]


@pytest.mark.parametrize("start", [False, True], ids=["default-start", "u0"])
def test_ball_solve_takes_one_gradient_per_trial(grid, rng, monkeypatch, start):
    # one gradient at the start, one per trial (which gives its norm and
    # residual) and one per step for the monotonicity sample; the merit, a
    # dual norm, once at the start and once per trial, plus the tolerance's
    r = default_ball_radius(P15, grid=grid)
    f = residual_transformed(smooth_field(grid, rng, 0.5 * r), P15)
    u0 = smooth_field(grid, rng, 0.3 * r) if start else None
    counts = count_solve_work(monkeypatch)
    report = solve_monotone_ball(f, P15, radius=r, u0=u0)
    assert report.iterations >= 2
    assert counts["trials"] >= report.iterations
    assert counts["gradients"] == 1 + counts["trials"] + report.iterations
    assert counts["dual_norms"] == 2 + counts["trials"]
    assert counts["energies"] == 0
