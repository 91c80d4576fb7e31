"""Monotone-operator solves for M = -Delta_p - Delta - gamma*(.)^- - lam, and
the damped-Newton loop that every nonlinear solve of the package runs.

For p > 2 and lam below the first discrete eigenvalue the operator is
strongly monotone and the gradient of a convex energy, so a semismooth
Newton method with an energy-descent line search (damped Picard fallback)
converges globally. For 1 < p < 2 the transformed operator A = -||.||^{4-p}
Delta_p - Delta - gamma*(.)^- - lam is only coercive on balls, with constant
at least 1 - (4-p) L^{1-p/2} r^2 on the ball of radius r in H^1_0(0, L) for
lam <= 0; the ball-restricted solve refuses to leave that ball and
line-searches on the dual norm of the residual.

newton is the package's one damped-Newton loop, and damped_step its Armijo
search over Newton and then Picard directions; the two solves here (which
share _solve) and the continuation corrector differ only in their trial and
merit, directions, convergence test, acceptance checks and messages. The
Jacobians they take regularize themselves for 1 < p < 2 (see quasilinear),
so no caller passes an epsilon. Both solves iterate on nodal arrays, one
gradient per line-search trial, and build a Field only for the SolveReport
they return or raise with.

The vector inequalities backing the p > 2 case are checked empirically by
check_vector_inequalities, and strong monotonicity by monotonicity_sweep,
whose sampled ratio has the proven floor 2^{2-p}; ball_coercivity_samples
samples the certified coercivity bound on a ball, and default_ball_radius is
the closed-form radius on which that bound is proven >= 0.5.
The field samplers draw their pairs one at a time, in the order a
pair-by-pair loop would. monotonicity_sweep evaluates them as (pairs, n)
arrays, in blocks of about _BLOCK_VALUES doubles per array so that memory
stays flat in the pair count; ball_coercivity_samples, which no solve calls,
evaluates each pair on its own. check_vector_inequalities draws each of its
two sets whole, as one array per quantity, because its draw order is fixed;
its inputs are O(samples), and it evaluates them in blocks of _BLOCK_VALUES
values, so its temporaries are O(block). All three samplers return the same
doubles as their first blocked form (tests/oracles.py): only the Python and
numpy work around the arithmetic was cut.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from .grid import (Field, Grid, _check_same_grid, _Record, _set, _Value, dot_values,
                   dual_norm_values, gradient_values, h10_values, laplacian_solve_values,
                   require_finite, w1p_values)
from .quasilinear import Jacobian, ProblemParams, _energy, _jacobian, _residual
from .grid import dual_norm  # noqa: F401 -- perfbench/tracer.py patches it by name here
# perfbench/tracer.py patches these by name here; the solves call the cores above
from .quasilinear import (energy, jacobian_original, jacobian_transformed,  # noqa: F401
                          residual_original, residual_transformed)

# Armijo slope fraction and halvings per direction of damped_step
ARMIJO = 1e-4
MAX_HALVINGS = 8
# Newton steps a monotone solve takes at most, and its default tolerances
_MAX_ITER = 80
TOL_ABS = 1e-9
TOL_REL = 1e-12
# the stops of newton short of convergence, other than a refused step
STALLED = "stalled"
OUT_OF_STEPS = "out of steps"
# doubles per (pairs, n) array in the blocks of the sampled checks (64 KiB)
_BLOCK_VALUES = 1 << 13
# fewest sample pairs check_vector_inequalities accepts
MIN_SAMPLES = 10_000


class SolverError(RuntimeError):
    """Nonlinear solve failed; carries the best iterate seen."""

    def __init__(self, message: str, report: "SolveReport | None" = None):
        super().__init__(message)
        self.report = report


class SolveReport(_Record):
    """Converged (or best) iterate with convergence and coercivity diagnostics.

    coercivity_estimate is the smallest monotonicity ratio sampled along the
    iteration path: <Mu - Mw, u - w> / ||u-w||_{1,p}^p for the p > 2 solve and
    <Au - Aw, u - w> / ||u-w||_{1,2}^2 for the ball solve, both with their -lam term.
    ball_radius_used is inf for the unconstrained solve.
    """

    def __init__(self, solution: Field, iterations: int, final_residual: float,
                 coercivity_estimate: float, ball_radius_used: float):
        _set(self, "solution", solution)
        _set(self, "iterations", iterations)
        _set(self, "final_residual", final_residual)
        _set(self, "coercivity_estimate", coercivity_estimate)
        _set(self, "ball_radius_used", ball_radius_used)


class VectorInequalityReport(_Value):
    """Empirical constants for the p > 2 flux-difference inequalities."""

    def __init__(self, p: float, n_samples: int, c1_emp: float, c2_emp: float,
                 c1_floor: float, violations: int):
        _set(self, "p", p)
        _set(self, "n_samples", n_samples)
        _set(self, "c1_emp", c1_emp)
        _set(self, "c2_emp", c2_emp)
        _set(self, "c1_floor", c1_floor)
        _set(self, "violations", violations)


def newton_then_picard(jac: Jacobian, r: np.ndarray, grid: Grid) -> Iterator[np.ndarray]:
    """Candidate directions for the residual values r, lazily: the Newton
    direction -J^{-1} r unless its solve raises ValueError or is not finite,
    then the Picard direction -(-Delta)^{-1} r, which must be finite."""
    try:
        newton = -jac.solve_values(r)
        require_finite(newton)
    except ValueError:
        pass
    else:
        yield newton
    picard = -laplacian_solve_values(grid, r)
    require_finite(picard)
    yield picard


def damped_step(x, m0: float, directions: Iterable[tuple[object, float]],
                trial: Callable[[object], tuple[float, object]],
                slack: float = 0.0):
    """One damped-Newton step from x, whose merit is m0.

    Tries each (d, slope) in order, skipping those with slope >= 0, at
    t = 1, 1/2, ..., 2^-MAX_HALVINGS. trial(y) returns (merit, data) at y,
    data being whatever the caller reuses (the residual, say).
    Returns (x + t*d, data) for the first trial with
    merit <= m0 + ARMIJO * t * slope + slack, or None if no direction gives
    that decrease. x and d need only support x + t*d (Fields or arrays).
    """
    for d, slope in directions:
        if slope >= 0.0:
            continue
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            x_try = x + d if t == 1.0 else x + t * d  # 1.0 * d is d
            merit, res = trial(x_try)
            if merit <= m0 + ARMIJO * t * slope + slack:
                return x_try, res
            t *= 0.5
    return None


def newton(x, merit: float, data, trial: Callable, directions: Callable,
           converged: Callable, max_iter: int, accept: Callable | None = None,
           slack: float = 0.0) -> tuple:
    """Damped Newton from x, whose merit and data are given; trial(y) returns
    (merit, data) at a trial point y.

    converged(data) is tested before each of at most max_iter steps and
    after the last. A step is damped_step over directions(x, merit, data),
    with slack * |merit| of Armijo slack; accept(x, data, x_new, data_new)
    returns the data kept for x_new or raises SolverError to refuse it.
    Returns (x, merit, data, steps, stop) at the last iterate tested, stop
    being None (converged), STALLED, OUT_OF_STEPS or accept's SolverError.
    """
    def kept(y):
        m, d = trial(y)
        return m, (m, d)

    for it in range(max_iter + 1):
        if converged(data):
            return x, merit, data, it, None
        if it == max_iter:
            return x, merit, data, it, OUT_OF_STEPS
        step = damped_step(x, merit, directions(x, merit, data), kept, slack * abs(merit))
        if step is None:
            return x, merit, data, it, STALLED
        x_new, (merit_new, data_new) = step
        if accept is not None:
            try:
                data_new = accept(x, data, x_new, data_new)
            except SolverError as exc:
                return x, merit, data, it, exc
        x, merit, data = x_new, merit_new, data_new


def _solve(f: Field, params: ProblemParams, tol_abs: float, tol_rel: float,
           u: np.ndarray, merit: float, data: tuple, trial: Callable, accept: Callable,
           radius: float, stalled: str, slack: float = 0.0) -> SolveReport:
    """newton from u for the energy (p > 2) or the ball solve: the SolveReport
    of the last iterate tested, or SolverError with it. An iterate's data are
    its residual, gradient, residual norm (tested against the tolerance) and
    the coercivity sampled so far; the slope of a direction d is (r, d)_2 on
    the energy and -merit on the ball's residual norm. The solve stops when
    the dual-norm residual falls below tol_abs or below tol_rel times the
    dual norm of f; both must be finite and positive. Its other limits are
    module constants: _MAX_ITER Newton steps, MAX_HALVINGS per direction."""
    for name, value in (("tol_abs", tol_abs), ("tol_rel", tol_rel)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    grid, h = f.grid, f.grid.h
    transformed = params.p < 2.0
    tol = max(tol_abs, tol_rel * dual_norm_values(grid, f.values))

    def directions(u: np.ndarray, merit: float, data: tuple) -> Iterator[tuple]:
        r = data[0]
        dirs = newton_then_picard(_jacobian(u, data[1], grid, params, transformed), r, grid)
        return ((d, -merit if transformed else h * float(np.dot(r, d))) for d in dirs)

    u, _, (_, _, rnorm, coercivity), it, stop = newton(
        u, merit, data, trial, directions, lambda data: data[2] <= tol,
        _MAX_ITER, accept, slack)
    report = SolveReport(solution=Field(grid, u), iterations=it, final_residual=rnorm,
                         coercivity_estimate=coercivity, ball_radius_used=radius)
    if stop is None:
        return report
    if stop is STALLED:
        message = stalled.format(rnorm=rnorm, tol=tol)
    elif stop is OUT_OF_STEPS:
        message = (f"no convergence in {_MAX_ITER} iterations "
                   f"(residual {rnorm:.3e}, tol {tol:.3e})")
    else:
        message = str(stop)
    raise SolverError(message, report)


def solve_monotone(f: Field, params: ProblemParams, u0: Field | None = None,
                   tol_abs: float = TOL_ABS, tol_rel: float = TOL_REL) -> SolveReport:
    """Solve -Delta_p u - Delta u - gamma*u^- - lam*u = f for p > 2.

    Semismooth Newton with an Armijo line search on the energy E(u) - <f, u>,
    which is convex, and the descent global, for lam below the first discrete
    eigenvalue; if a Newton step cannot produce descent, the step falls back
    to the damped Picard direction (a preconditioned gradient step). The
    default start is the plain Poisson solve for f. A trial's one gradient
    gives its energy and, once accepted, its residual and Jacobian.
    """
    if params.p <= 2.0:
        raise ValueError(f"solve_monotone needs p > 2, got p={params.p}; use the ball solve")
    grid, h, fv = f.grid, f.grid.h, f.values
    if u0 is not None:
        _check_same_grid(u0, f)
    u = laplacian_solve_values(grid, fv) if u0 is None else u0.values

    def trial(w: np.ndarray) -> tuple[float, np.ndarray]:
        require_finite(w)
        g = gradient_values(w, h)
        return _energy(w, g, h, params) - h * float(np.dot(fv, w)), g

    def residual(w: np.ndarray, g: np.ndarray) -> np.ndarray:
        rw = _residual(w, g, h, params, 1.0) - fv
        require_finite(rw)
        return rw

    def accept(u: np.ndarray, data: tuple, u_new: np.ndarray, g: np.ndarray) -> tuple:
        r_new = residual(u_new, g)
        # r carries M(u) - f, so r_new - r = M(u_new) - M(u)
        coercivity = min(data[3], float(_monotonicity_ratios(
            r_new - data[0], u_new - u, h, params.p)))
        return r_new, g, dual_norm_values(grid, r_new), coercivity

    m0, g = trial(u)
    r = residual(u, g)
    # near convergence the true decrease drops below the float resolution of
    # the energy; the slack keeps full Newton steps acceptable on that plateau
    return _solve(f, params, tol_abs, tol_rel, u, m0,
                  (r, g, dual_norm_values(grid, r), math.inf), trial, accept, math.inf,
                  "line search stalled in monotone solve "
                  "(residual {rnorm:.3e}, tol {tol:.3e})",
                  slack=32.0 * np.finfo(float).eps)


def _monotonicity_ratios(dr: np.ndarray, du: np.ndarray, h: float,
                         p: float) -> np.ndarray:
    """(dr, du)_2 / ||du||_{1,p}^p along the last axis; inf where du = 0."""
    denom = w1p_values(gradient_values(du, h), h, p) ** p
    zero = denom == 0.0
    return np.where(zero, math.inf, h * dot_values(dr, du) / np.where(zero, 1.0, denom))


def _block_rows(grid: Grid) -> int:
    """Pairs per block of the sampled checks: each (pairs, n) array of a
    block holds about _BLOCK_VALUES doubles, whatever the mesh."""
    return max(1, _BLOCK_VALUES // grid.n_interior)


def _blocks(n_pairs: int, rows: int) -> Iterator[int]:
    """Row counts of consecutive blocks covering n_pairs pairs."""
    for start in range(0, n_pairs, rows):
        yield min(rows, n_pairs - start)


def check_monotonicity_sweep(params: ProblemParams, n_pairs: int) -> None:
    """Raise ValueError unless monotonicity_sweep can take these arguments."""
    if params.p <= 2.0:
        raise ValueError(f"the monotonicity bound holds only for p > 2, got p={params.p}")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")


def monotonicity_sweep(params: ProblemParams, n_pairs: int = 10000,
                       rng: np.random.Generator | None = None,
                       grid: Grid | None = None) -> tuple[float, int]:
    """Sample (Mu - Mw, u - w)_2 / ||u - w||_{1,p}^p over random pairs, p > 2.

    Pair scales span four decades. Returns the smallest sampled ratio and
    the count of nonpositive samples. Summing inequality (a) of
    check_vector_inequalities over the elements proves the ratio >= 2^{2-p}
    for lam <= 0 (the Laplacian, the gamma part and -lam*u only add to it).

    Pairs are drawn one at a time, u then w, each field as one scale
    10^(-2 + 4 U) from rng.random() followed by n normals; that is the
    generator stream of rng.uniform(-2, 2) per field, which computes
    low + (high - low) * U. Each block's fields fill the rows of one
    (2 * pairs, n) array, u in the even rows and w in the odd ones.
    """
    check_monotonicity_sweep(params, n_pairs)
    if rng is None:
        rng = np.random.default_rng(42)
    if grid is None:
        grid = Grid()
    h, n = grid.h, grid.n_interior
    uniform, normal = rng.random, rng.standard_normal
    worst = math.inf
    violations = 0
    for rows in _blocks(n_pairs, _block_rows(grid)):
        fields = np.empty((2 * rows, n))
        scale = []
        for row in fields:
            scale.append(10.0 ** (-2.0 + 4.0 * uniform()))
            normal(n, out=row)
        fields *= np.array(scale)[:, None]
        require_finite(fields)
        res = _residual(fields, gradient_values(fields, h), h, params, 1.0)
        require_finite(res)
        du, dr = fields[0::2] - fields[1::2], res[0::2] - res[1::2]
        require_finite(du)
        require_finite(dr)
        ratio = _monotonicity_ratios(dr, du, h, params.p)
        ratio = ratio[np.isfinite(ratio)]
        if ratio.size:
            worst = min(worst, float(np.min(ratio)))
            violations += int(np.count_nonzero(ratio <= 0.0))
    return worst, violations


def ball_coercivity_samples(params: ProblemParams, r: float, n_pairs: int,
                            rng: np.random.Generator,
                            grid: Grid | None = None) -> np.ndarray:
    """Certified monotonicity lower bounds for pair samples in the ball B_r.

    For a pair (u, w) the pairing (Au - Aw, u - w)_2 splits into the H^1_0
    square, a nonnegative p-Laplacian part, a nonnegative gamma part, and the
    norm-coefficient cross term; bounding the cross term by Holder leaves

        1 - |c(u) - c(w)| * ||w||_{1,p}^{p-1} * ||u-w||_{1,p} / ||u-w||_{1,2}^2

    as a guaranteed lower bound for the monotonicity ratio, whose deficit
    against 1 scales with r^2 when a pair is scaled into B_r. The first
    n_pairs // 2 pairs are far apart, two fields with H^1_0 norms in
    [0.2 r, r]; the rest are nearby, a field of norm at most 0.9 r and b = a
    + a random step of H^1_0 length 0.05 r (dropped if the step draw is
    zero). Each field draws its normals and then its norm. Pairs are drawn
    and evaluated one at a time, each as a one-row block.
    """
    _check_ball_exponent(params)
    _check_ball_radius(r)
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    if grid is None:
        grid = Grid()
    h, n = grid.h, grid.n_interior

    def h10(x: np.ndarray) -> np.ndarray:
        return h10_values(gradient_values(x, h), h)

    def ball_field(radius: float) -> np.ndarray:
        x = rng.standard_normal(n)[None]
        x = x * (radius * rng.uniform(0.2, 1.0) / h10(x))
        require_finite(x)
        return x

    bounds = []
    n_far = n_pairs // 2
    for _ in range(n_far):
        a = ball_field(r)
        bounds.append(_certified_bounds(a, ball_field(r), h, params.p))
    for _ in range(n_pairs - n_far):
        a = ball_field(0.9 * r)
        step = rng.standard_normal(n)[None]
        hn = h10(step)
        if hn[0] == 0.0:
            continue
        b = a + (0.05 * r) / hn * step
        require_finite(b)
        bounds.append(_certified_bounds(a, b, h, params.p))
    return np.concatenate(bounds) if bounds else np.empty(0)


def _check_ball_exponent(params: ProblemParams) -> None:
    if not (1.0 < params.p < 2.0):
        raise ValueError("ball coercivity applies to 1 < p < 2")


def _check_ball_radius(r: float) -> None:
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError("ball radius must be finite and positive")


def _certified_bounds(a: np.ndarray, b: np.ndarray, h: float,
                      p: float) -> np.ndarray:
    """The certified lower bound of ball_coercivity_samples for each row
    pair (a, b); inf where a = b."""
    d = a - b
    ga, gb, gd = (gradient_values(x, h) for x in (a, b, d))
    denom = h10_values(gd, h) ** 2
    cross = np.abs(h10_values(ga, h) ** (4.0 - p) - h10_values(gb, h) ** (4.0 - p)) \
        * w1p_values(gb, h, p) ** (p - 1.0) * w1p_values(gd, h, p)
    zero = denom == 0.0
    return np.where(zero, math.inf, 1.0 - cross / np.where(zero, 1.0, denom))


def ball_coercivity_bound(params: ProblemParams, r: float, n_pairs: int = 64,
                          rng: np.random.Generator | None = None,
                          grid: Grid | None = None) -> float:
    """Smallest certified monotonicity lower bound on the ball of radius r."""
    if rng is None:
        rng = np.random.default_rng(7)
    bounds = ball_coercivity_samples(params, r, n_pairs, rng, grid)
    if bounds.size == 0:
        raise ValueError("no pair sampled: every step draw of the nearby pairs was zero")
    return float(np.min(bounds))


def default_ball_radius(params: ProblemParams, grid: Grid | None = None) -> float:
    """Radius r* = (2 (4-p) L^{1-p/2})^{-1/2} of a ball on which the certified
    coercivity bound of ball_coercivity_samples is proven >= 0.5, L being the
    grid length (pi by default).

    On B_r, Holder over the n + 1 elements (h * sum 1 = L) gives
    ||w||_{1,p} <= L^{1/p-1/2} ||w||_{1,2}, and the mean value theorem gives
    | ||u||^{4-p} - ||w||^{4-p} | <= (4-p) r^{3-p} ||u-w||_{1,2}. Together they
    bound the deficit of every pair in B_r by (4-p) L^{1-p/2} r^2, which is
    0.5 at r*. The radius depends on p and L alone, not on n, gamma or lam.
    """
    _check_ball_exponent(params)
    length = (grid if grid is not None else Grid()).length
    return (2.0 * (4.0 - params.p) * length ** (1.0 - 0.5 * params.p)) ** -0.5


def solve_monotone_ball(f: Field, params: ProblemParams, radius: float | None = None,
                        u0: Field | None = None, tol_abs: float = TOL_ABS,
                        tol_rel: float = TOL_REL) -> SolveReport:
    """Solve the transformed-operator equation A v = f inside a coercivity ball.

    Newton on the exact residual with the self-regularizing Jacobian
    jacobian_transformed, an Armijo search on the dual norm of the residual
    and a damped Picard fallback. The radius defaults to default_ball_radius,
    on which coercivity is proven for lam <= 0. For a radius the caller passes, the
    iteration fails informatively if an iterate leaves the ball or a sampled
    monotonicity ratio turns nonpositive, both of which signal that the
    radius is too large for this p. A trial's one gradient gives its norm and
    residual and, once accepted, its ball test and Jacobian.
    """
    if not (1.0 < params.p < 2.0):
        raise ValueError("solve_monotone_ball requires 1 < p < 2")
    grid, h, fv = f.grid, f.grid.h, f.values
    if radius is None:
        radius = default_ball_radius(params, grid=grid)
    _check_ball_radius(radius)
    if u0 is not None:
        _check_same_grid(u0, f)
    v = np.zeros(grid.n_interior) if u0 is None else u0.values

    def trial(w: np.ndarray) -> tuple[float, tuple]:
        require_finite(w)
        g = gradient_values(w, h)
        nrm = float(h10_values(g, h))
        rw = _residual(w, g, h, params, nrm ** (4.0 - params.p)) - fv
        require_finite(rw)
        rnorm = dual_norm_values(grid, rw)
        return rnorm, (rw, g, rnorm, nrm)

    def accept(v: np.ndarray, data: tuple, v_new: np.ndarray, data_new: tuple) -> tuple:
        r_new, g, rnorm, nrm = data_new
        if nrm > radius:
            raise SolverError(
                f"iterate left the coercivity ball (||v||_1,2 = "
                f"{nrm:.6g} > r = {radius:.6g}); reduce the radius "
                f"or the data")
        dv = v_new - v
        denom = float(h10_values(gradient_values(dv, h), h)) ** 2
        coercivity = data[3]
        if denom > 0.0:
            sample = h * float(np.dot(r_new - data[0], dv)) / denom
            if sample <= 0.0:
                raise SolverError(
                    f"nonpositive monotonicity sample {sample:.3e} on the ball "
                    f"of radius {radius:.6g}: radius too large")
            coercivity = min(coercivity, sample)
        return r_new, g, rnorm, coercivity

    rnorm, (r, g, _, nrm) = trial(v)
    if nrm > radius:
        raise ValueError("initial guess lies outside the coercivity ball")
    return _solve(f, params, tol_abs, tol_rel, v, rnorm, (r, g, rnorm, math.inf), trial,
                  accept, radius, "line search stalled in ball-restricted solve")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x, which has one or two columns, with
    the bits of np.linalg.norm(x, axis=1): sqrt(x0^2 + x1^2) summed in that
    order, and for one column |x0|, to which sqrt(x0^2) rounds exactly when
    x0^2 neither underflows nor overflows."""
    if x.shape[1] == 1:
        return np.abs(x[:, 0])
    return np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1])


def check_vector_inequalities(p: float, n_samples: int,
                              rng: np.random.Generator | None = None
                              ) -> VectorInequalityReport:
    """Empirical constants for the flux-difference inequalities, p > 2.

    (a)  <x2 - x1, |x2|^{p-2}x2 - |x1|^{p-2}x1>  >=  c1 |x2 - x1|^p
    (b)  | |x2|^{p-2}x2 - |x1|^{p-2}x1 |  <=  c2 (|x2|+|x1|)^{p-2} |x2 - x1|

    Samples live in R^1 and R^2 and include the antipodal pairs x2 = -x1 that
    attain the analytic floor c1 = 2^{2-p}; violations counts failures of (a)
    at that floor and of (b) at the mean-value constant c2 = p - 1, with
    round-off slack. Pairs with |x2 - x1| <= 1e-12 (|x1| + |x2|) are skipped.
    Raises ValueError, naming p, when the smallest ratio (a) or the largest
    ratio (b) is not a finite double: from about p = 43 on, depending on the
    draws, |x|^{p-2} under- or overflows and gives infinite ratios and false
    violations. A ratio (a) of +inf from an underflowed |x2 - x1|^p alone
    changes neither the minimum nor the count, so it does not raise.

    The n_samples // 2 pairs in R^1 are drawn as a scale column, then all x1,
    then all x2, and evaluated before the rest are drawn in R^2 the same way.
    That fixed draw order keeps the inputs O(n_samples): at most 40 bytes per
    R^2 pair, the R^1 set being freed by then. Each set is evaluated in blocks
    of _BLOCK_VALUES // dim rows, so the temporaries are O(block) whatever
    n_samples. Every operation is elementwise or per row, and the extremes
    and counts carry over blocks exactly, so the report does not depend on
    the block size.

    The norms |x1|, |x2| and |x2 - x1| are taken once per pair and serve the
    skip test, the fluxes and both ratios. They have the bits of
    np.linalg.norm: in R^1 they are absolute values, which is what sqrt(x^2)
    rounds to at these sample scales (no under- or overflow of x^2), and in
    R^2 they sum the two squares in np.linalg.norm's order.
    """
    if not p > 2.0:
        raise ValueError(f"the inequalities hold in this form only for p > 2, got p={p}")
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}, got {n_samples}")
    if rng is None:
        rng = np.random.default_rng(42)

    n1 = n_samples // 2
    c1_1, c2_1, bad_1 = _inequality_extremes(rng, n1, 1, p, 0)
    # antipodal pairs attain the floor exactly
    n2 = n_samples - n1
    c1_2, c2_2, bad_2 = _inequality_extremes(rng, n2, 2, p, min(64, n2))
    return VectorInequalityReport(p=p, n_samples=n_samples, c1_emp=min(c1_1, c1_2),
                                  c2_emp=max(c2_1, c2_2), c1_floor=2.0 ** (2.0 - p),
                                  violations=bad_1 + bad_2)


# a ratio that leaves the double range raises or is harmless, so numpy's
# warnings for it would only repeat that
@np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore")
def _inequality_extremes(rng: np.random.Generator, n: int, dim: int, p: float,
                         n_anti: int) -> tuple[float, float, int]:
    """Draw n pairs in R^dim for check_vector_inequalities, the first n_anti
    of them antipodal, and return the smallest ratio (a), the largest ratio
    (b) and the violation count over the kept pairs. The arrays live only in
    this call, so the caller's next set is drawn after they are freed."""
    scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    x1 = rng.standard_normal((n, dim))
    x2 = rng.standard_normal((n, dim))
    x1 *= scale
    x2 *= scale
    del scale
    x2[:n_anti] = -x1[:n_anti]

    c1_emp = math.inf
    c2_emp = 0.0
    violations = 0
    floor = 2.0 ** (2.0 - p)
    c2_bound = p - 1.0
    rows = _BLOCK_VALUES // dim
    for start in range(0, n, rows):
        a, b = x1[start:start + rows], x2[start:start + rows]
        d = b - a
        na, nb, dn = _row_norms(a), _row_norms(b), _row_norms(d)
        sums = na + nb
        keep = dn > 1e-12 * sums
        if not keep.all():
            a, b, d, na, nb, dn, sums = (x[keep] for x in (a, b, d, na, nb, dn, sums))
        # phi(x) = |x|^{p-2} x, and 0 at x = 0
        dphi = (np.where(nb > 0.0, nb ** (p - 2.0), 0.0)[:, None] * b
                - np.where(na > 0.0, na ** (p - 2.0), 0.0)[:, None] * a)
        ratio_a = np.einsum("ij,ij->i", d, dphi) / dn ** p
        ratio_b = _row_norms(dphi) / (sums ** (p - 2.0) * dn)
        # NaN passes through np.min and np.max; a ratio (a) of +inf, from an
        # underflowed |x2 - x1|^p, leaves the minimum alone
        lo, hi = float(np.min(ratio_a)), float(np.max(ratio_b))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"the sampled inequality ratios at p={p} leave the "
                             f"double range (|x|^(p-2) under- or overflows); "
                             f"use a smaller p")
        c1_emp = min(c1_emp, lo)
        c2_emp = max(c2_emp, hi)
        violations += int(np.count_nonzero(ratio_a < floor * (1.0 - 1e-9)))
        violations += int(np.count_nonzero(ratio_b > c2_bound * (1.0 + 1e-9)))
    return c1_emp, c2_emp, violations
