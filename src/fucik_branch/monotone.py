"""Monotone-operator solves for M = -Delta_p - Delta - gamma*(.)^-, and the
damped-Newton step that every nonlinear solve of the package takes.

For p > 2 the operator is strongly monotone on the whole space and is also
the gradient of a convex energy, so a semismooth Newton method with an
energy-descent line search (damped Picard fallback) converges globally. For
1 < p < 2 the transformed operator A = -||.||^{4-p} Delta_p - Delta -
gamma*(.)^- is only coercive on balls, with sampled constant 1 - C'r^2 on the
ball of radius r; the ball-restricted solve refuses to leave that ball and
line-searches on the dual norm of the residual.

damped_step is the package's one Armijo backtracking loop, over Newton and
then Picard directions; its callers here and in continuation differ only in
their merit and stopping tests. jacobian_eps is the one gradient
regularization of the Jacobians for 1 < p < 2.

The vector inequalities backing the p > 2 case are checked empirically by
check_vector_inequalities.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .config import SolverConfig
from .grid import (Field, Grid, dual_norm, element_gradients, h10_norm,
                   inner_l2, laplacian_solve_values, norms)
from .quasilinear import (Jacobian, ProblemParams, energy, jacobian_original,
                          jacobian_transformed, residual_original,
                          residual_transformed)

logger = logging.getLogger("fucik_branch.monotone")

# Armijo slope fraction and halvings per direction of damped_step
ARMIJO = 1e-4
MAX_HALVINGS = 8
# Jacobian gradient regularization for 1 < p < 2, relative to mean |grad u| + 1
EPS_REG_SCALE = 1e-8


class SolverError(RuntimeError):
    """Nonlinear solve failed; carries the best iterate seen."""

    def __init__(self, message: str, report: "SolveReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Converged (or best) iterate with convergence and coercivity diagnostics.

    coercivity_estimate is the smallest monotonicity ratio sampled along the
    iteration path: <Mu - Mw, u - w> / ||u-w||_{1,p}^p for the p > 2 solve and
    <Au - Aw, u - w> / ||u-w||_{1,2}^2 for the ball-restricted solve.
    ball_radius_used is inf for the unconstrained solve.
    """

    solution: Field
    iterations: int
    final_residual: float
    coercivity_estimate: float
    ball_radius_used: float


@dataclass(frozen=True)
class VectorInequalityReport:
    """Empirical constants for the p > 2 flux-difference inequalities."""

    p: float
    n_samples: int
    c1_emp: float
    c2_emp: float
    c1_floor: float
    violations: int


def _operator_params(params: ProblemParams) -> ProblemParams:
    # the solves here treat M u = f; any spectral lam in params is not part of M
    return replace(params, lam=0.0) if params.lam != 0.0 else params


def jacobian_eps(u: Field, params: ProblemParams) -> float:
    """Gradient regularization for the Jacobian at u.

    params.eps_reg for p > 2. For 1 < p < 2 at least
    EPS_REG_SCALE * (mean |grad u| + 1), which keeps the flux derivative
    |g|^{p-2} finite where a gradient vanishes. Only Jacobians take this
    floor; residuals keep params.eps_reg, so converged iterates solve the
    discrete equation as given.
    """
    if params.p > 2.0:
        return params.eps_reg
    floor = EPS_REG_SCALE * (float(np.mean(np.abs(element_gradients(u)))) + 1.0)
    return max(params.eps_reg, floor)


def newton_then_picard(jac: Jacobian, r: Field) -> Iterator[Field]:
    """Candidate directions for the residual r, lazily: the Newton direction
    -J^{-1} r unless its solve raises ValueError or is not finite (which Field
    rejects), then the Picard direction -(-Delta)^{-1} r."""
    try:
        newton = Field(r.grid, -jac.solve_values(r.values))
    except ValueError:
        pass
    else:
        yield newton
    yield Field(r.grid, -laplacian_solve_values(r.grid, r.values))


def damped_step(x, m0: float, directions: Iterable[tuple[object, float]],
                trial: Callable[[object], tuple[float, object]],
                slack: float = 0.0):
    """One damped-Newton step from x, whose merit is m0.

    Tries each (d, slope) in order, skipping those with slope >= 0, at
    t = 1, 1/2, ..., 2^-MAX_HALVINGS. trial(y) returns (merit, residual) at y.
    Returns (x + t*d, residual) for the first trial with
    merit <= m0 + ARMIJO * t * slope + slack, or None if no direction gives
    that decrease. x and d need only support x + t*d (Fields or arrays).
    """
    for d, slope in directions:
        if slope >= 0.0:
            continue
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            x_try = x + t * d
            merit, res = trial(x_try)
            if merit <= m0 + ARMIJO * t * slope + slack:
                return x_try, res
            t *= 0.5
    return None


def solve_monotone(f: Field, params: ProblemParams,
                   config: SolverConfig | None = None,
                   u0: Field | None = None) -> SolveReport:
    """Solve -Delta_p u - Delta u - gamma*u^- = f for p > 2.

    Semismooth Newton with an Armijo line search on the convex energy
    E(u) - <f, u>; if a Newton step cannot produce descent, the step falls
    back to the damped Picard direction (a preconditioned gradient step).
    The default start is the plain Poisson solve for f.
    """
    if params.p <= 2.0:
        raise ValueError("solve_monotone requires p > 2; use solve_monotone_ball")
    if config is None:
        config = SolverConfig()
    params = _operator_params(params)
    grid = f.grid

    def residual(u: Field) -> Field:
        return residual_original(u, params) - f

    def merit(u: Field) -> float:
        return energy(u, params) - inner_l2(f, u)

    u = u0 if u0 is not None else Field(grid, laplacian_solve_values(grid, f.values))
    r = residual(u)
    tol = max(config.tol_abs, config.tol_rel * dual_norm(f))
    coercivity = math.inf
    for it in range(config.max_iter + 1):
        rnorm = dual_norm(r)
        report = SolveReport(solution=u, iterations=it, final_residual=rnorm,
                             coercivity_estimate=coercivity,
                             ball_radius_used=math.inf)
        if rnorm <= tol:
            return report
        if it == config.max_iter:
            break
        m0 = merit(u)
        dirs = newton_then_picard(jacobian_original(u, params), r)
        # near convergence the true decrease drops below the float resolution of
        # the energy; the slack keeps full Newton steps acceptable on that plateau
        step = damped_step(u, m0, ((d, inner_l2(r, d)) for d in dirs),
                           lambda w: (merit(w), None),
                           slack=32.0 * np.finfo(float).eps * abs(m0))
        if step is None:
            break
        u_new = step[0]
        r_new = residual(u_new)
        coercivity = min(coercivity, _monotonicity_sample(
            r_new, r, u_new, u, params.p))
        u, r = u_new, r_new
    raise SolverError(f"no convergence in {config.max_iter} iterations "
                      f"(residual {rnorm:.3e}, tol {tol:.3e})", report)


def _monotonicity_sample(r_new: Field, r_old: Field, u_new: Field,
                         u_old: Field, p: float) -> float:
    # r carries M(u) - f, so r_new - r_old = M(u_new) - M(u_old)
    du = u_new - u_old
    denom = norms(du, p).w1p ** p
    if denom == 0.0:
        return math.inf
    return inner_l2(r_new - r_old, du) / denom


def monotonicity_sweep(params: ProblemParams, n_pairs: int = 10000,
                       rng: np.random.Generator | None = None,
                       grid: Grid | None = None) -> tuple[float, int]:
    """Sample (Mu - Mw, u - w)_2 / ||u - w||_{1,p}^p over random pairs, p > 2.

    Pair scales span four decades. Returns the smallest sampled ratio and
    the count of nonpositive samples; strong monotonicity of M predicts a
    strictly positive minimum.
    """
    if params.p <= 2.0:
        raise ValueError("the whole-space monotonicity bound needs p > 2")
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    if rng is None:
        rng = np.random.default_rng(42)
    if grid is None:
        grid = Grid()
    op = _operator_params(params)
    worst = math.inf
    violations = 0
    for _ in range(n_pairs):
        u = Field(grid, 10.0 ** rng.uniform(-2.0, 2.0)
                  * rng.standard_normal(grid.n_interior))
        w = Field(grid, 10.0 ** rng.uniform(-2.0, 2.0)
                  * rng.standard_normal(grid.n_interior))
        ratio = _monotonicity_sample(residual_original(u, op),
                                     residual_original(w, op), u, w, params.p)
        if math.isfinite(ratio):
            worst = min(worst, ratio)
            if ratio <= 0.0:
                violations += 1
    return worst, violations


def ball_coercivity_samples(params: ProblemParams, r: float, n_pairs: int,
                            rng: np.random.Generator,
                            grid: Grid | None = None) -> np.ndarray:
    """Certified monotonicity lower bounds for pair samples in the ball B_r.

    For a pair (u, w) the pairing (Au - Aw, u - w)_2 splits into the H^1_0
    square, a nonnegative p-Laplacian part, a nonnegative gamma part, and the
    norm-coefficient cross term; bounding the cross term by Holder leaves

        1 - |c(u) - c(w)| * ||w||_{1,p}^{p-1} * ||u-w||_{1,p} / ||u-w||_{1,2}^2

    as a guaranteed lower bound for the monotonicity ratio. Its deficit
    against 1 scales exactly with r^2 when a pair is scaled into B_r, so the
    same generator state probed at two radii yields exactly r^2-related
    bounds. The sampled pairs mix far-apart fields with nearby ones.
    """
    if not (1.0 < params.p < 2.0):
        raise ValueError("ball coercivity applies to 1 < p < 2")
    if r <= 0.0:
        raise ValueError("ball radius must be positive")
    if grid is None:
        grid = Grid()
    p = params.p
    bounds = []

    def certified(a: Field, b: Field) -> float:
        d = a - b
        denom = h10_norm(d) ** 2
        if denom == 0.0:
            return math.inf
        cross = abs(h10_norm(a) ** (4.0 - p) - h10_norm(b) ** (4.0 - p)) \
            * norms(b, p).w1p ** (p - 1.0) * norms(d, p).w1p
        return 1.0 - cross / denom

    n_far = n_pairs // 2
    for _ in range(n_far):
        a = _random_ball_field(grid, r, rng)
        b = _random_ball_field(grid, r, rng)
        bounds.append(certified(a, b))
    for _ in range(n_pairs - n_far):
        a = _random_ball_field(grid, 0.9 * r, rng)
        step = rng.standard_normal(grid.n_interior)
        sf = Field(grid, step)
        hn = h10_norm(sf)
        if hn == 0.0:
            continue
        b = Field(grid, a.values + (0.05 * r / hn) * step)
        bounds.append(certified(a, b))
    return np.asarray(bounds)


def _random_ball_field(grid: Grid, radius: float,
                       rng: np.random.Generator) -> Field:
    vals = rng.standard_normal(grid.n_interior)
    f = Field(grid, vals)
    scale = radius * rng.uniform(0.2, 1.0) / h10_norm(f)
    return Field(grid, vals * scale)


def ball_coercivity_bound(params: ProblemParams, r: float, n_pairs: int = 64,
                          rng: np.random.Generator | None = None,
                          grid: Grid | None = None) -> float:
    """Smallest certified monotonicity lower bound on the ball of radius r."""
    if rng is None:
        rng = np.random.default_rng(7)
    return float(np.min(ball_coercivity_samples(params, r, n_pairs, rng, grid)))


def default_ball_radius(params: ProblemParams, grid: Grid | None = None,
                        seed: int = 7) -> float:
    """Largest dyadic r <= 1 whose sampled coercivity bound stays >= 0.5.

    Each candidate radius is probed with an identically seeded generator, so
    all levels see the same pair set rescaled and the search is monotone.
    """
    r = 1.0
    for _ in range(30):
        if ball_coercivity_bound(params, r, rng=np.random.default_rng(seed),
                                 grid=grid) >= 0.5:
            return r
        r *= 0.5
    raise SolverError("no dyadic radius with positive sampled coercivity")


def solve_monotone_ball(f: Field, params: ProblemParams,
                        config: SolverConfig | None = None,
                        radius: float | None = None,
                        u0: Field | None = None) -> SolveReport:
    """Solve the transformed-operator equation A v = f inside a coercivity ball.

    Newton on the exact residual with a regularized-weight Jacobian
    (jacobian_eps), an Armijo search on the dual norm of the residual and a
    damped Picard fallback. The iteration fails informatively if an iterate
    leaves the ball or a sampled monotonicity ratio turns nonpositive, both of
    which signal that the radius is too large for this p.
    """
    if not (1.0 < params.p < 2.0):
        raise ValueError("solve_monotone_ball requires 1 < p < 2")
    if config is None:
        config = SolverConfig()
    params = _operator_params(params)
    grid = f.grid
    if radius is None:
        radius = default_ball_radius(params, grid=grid)

    def residual(v: Field) -> Field:
        return residual_transformed(v, params) - f

    v = u0 if u0 is not None else Field.zeros(grid)
    if h10_norm(v) > radius:
        raise ValueError("initial guess lies outside the coercivity ball")

    def trial(w: Field) -> tuple[float, Field]:
        rw = residual(w)
        return dual_norm(rw), rw

    r = residual(v)
    tol = max(config.tol_abs, config.tol_rel * dual_norm(f))
    coercivity = math.inf
    for it in range(config.max_iter + 1):
        rnorm = dual_norm(r)
        report = SolveReport(solution=v, iterations=it, final_residual=rnorm,
                             coercivity_estimate=coercivity,
                             ball_radius_used=radius)
        if rnorm <= tol:
            return report
        if it == config.max_iter:
            break
        jac = jacobian_transformed(v, replace(params, eps_reg=jacobian_eps(v, params)))
        dirs = newton_then_picard(jac, r)
        step = damped_step(v, rnorm, ((d, -rnorm) for d in dirs), trial)
        if step is None:
            raise SolverError("line search stalled in ball-restricted solve",
                              report)
        v_new, r_new = step
        if h10_norm(v_new) > radius:
            raise SolverError(
                f"iterate left the coercivity ball (||v||_1,2 = "
                f"{h10_norm(v_new):.6g} > r = {radius:.6g}); reduce the radius "
                f"or the data", report)
        dv = v_new - v
        denom = h10_norm(dv) ** 2
        if denom > 0.0:
            sample = inner_l2(r_new - r, dv) / denom
            coercivity = min(coercivity, sample)
            if sample <= 0.0:
                raise SolverError(
                    f"nonpositive monotonicity sample {sample:.3e} on the ball "
                    f"of radius {radius:.6g}: radius too large", report)
        v, r = v_new, r_new
    raise SolverError(f"no convergence in {config.max_iter} iterations "
                      f"(residual {rnorm:.3e}, tol {tol:.3e})", report)


def check_vector_inequalities(p: float, n_samples: int,
                              rng: np.random.Generator | None = None
                              ) -> VectorInequalityReport:
    """Empirical constants for the flux-difference inequalities, p > 2.

    (a)  <x2 - x1, |x2|^{p-2}x2 - |x1|^{p-2}x1>  >=  c1 |x2 - x1|^p
    (b)  | |x2|^{p-2}x2 - |x1|^{p-2}x1 |  <=  c2 (|x2|+|x1|)^{p-2} |x2 - x1|

    Samples live in R^1 and R^2 and include the antipodal pairs x2 = -x1 that
    attain the analytic floor c1 = 2^{2-p}; violations counts failures of (a)
    at that floor and of (b) at the mean-value constant c2 = p - 1, with
    round-off slack.
    """
    if p <= 2.0:
        raise ValueError("the inequalities hold in this form only for p > 2")
    if n_samples < 10_000:
        raise ValueError("use at least 1e4 sample pairs")
    if rng is None:
        rng = np.random.default_rng(42)

    def phi(x: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return np.where(r > 0.0, r ** (p - 2.0), 0.0) * x

    n1 = n_samples // 2
    n2 = n_samples - n1
    scale = 10.0 ** rng.uniform(-3, 3, size=(n1, 1))
    x1 = rng.standard_normal((n1, 1)) * scale
    x2 = rng.standard_normal((n1, 1)) * scale
    scale2 = 10.0 ** rng.uniform(-3, 3, size=(n2, 1))
    y1 = rng.standard_normal((n2, 2)) * scale2
    y2 = rng.standard_normal((n2, 2)) * scale2
    # antipodal pairs attain the floor exactly
    n_anti = min(64, n2)
    y2[:n_anti] = -y1[:n_anti]

    c1_emp = math.inf
    c2_emp = 0.0
    violations = 0
    floor = 2.0 ** (2.0 - p)
    c2_bound = p - 1.0
    for a, b in ((x1, x2), (y1, y2)):
        d = b - a
        dn = np.linalg.norm(d, axis=1)
        keep = dn > 1e-12 * (np.linalg.norm(a, axis=1) + np.linalg.norm(b, axis=1))
        a, b, d, dn = a[keep], b[keep], d[keep], dn[keep]
        dphi = phi(b) - phi(a)
        lhs_a = np.einsum("ij,ij->i", d, dphi)
        ratio_a = lhs_a / dn ** p
        sums = np.linalg.norm(a, axis=1) + np.linalg.norm(b, axis=1)
        ratio_b = np.linalg.norm(dphi, axis=1) / (sums ** (p - 2.0) * dn)
        c1_emp = min(c1_emp, float(np.min(ratio_a)))
        c2_emp = max(c2_emp, float(np.max(ratio_b)))
        violations += int(np.sum(ratio_a < floor * (1.0 - 1e-9)))
        violations += int(np.sum(ratio_b > c2_bound * (1.0 + 1e-9)))
    return VectorInequalityReport(p=p, n_samples=n_samples, c1_emp=c1_emp,
                                  c2_emp=c2_emp, c1_floor=floor,
                                  violations=violations)
