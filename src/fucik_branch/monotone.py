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
their merit and stopping tests. The Jacobians they take regularize
themselves for 1 < p < 2 (see quasilinear), so no caller passes an
epsilon.

The vector inequalities backing the p > 2 case are checked empirically by
check_vector_inequalities, and strong monotonicity by monotonicity_sweep;
ball_coercivity_samples certifies coercivity on a ball, and
default_ball_radius picks the ball. These sampled checks draw their pairs
one at a time, in the order a pair-by-pair loop would, and evaluate them as
(pairs, n) arrays, in blocks of about _BLOCK_VALUES doubles per array so
that memory stays flat in the pair count. default_ball_radius evaluates the
bound once, at r = 1, reads the radius off its exact r^2 scaling, and
caches it per (p, grid, seed).
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .config import SolverConfig
from .grid import (Field, Grid, dot_values, dual_norm, gradient_values,
                   h10_norm, h10_values, inner_l2, laplacian_solve_values,
                   require_finite, w1p_values)
from .quasilinear import (Jacobian, ProblemParams, energy, jacobian_original,
                          jacobian_transformed, residual_original,
                          residual_original_values, residual_transformed)

logger = logging.getLogger("fucik_branch.monotone")

# Armijo slope fraction and halvings per direction of damped_step
ARMIJO = 1e-4
MAX_HALVINGS = 8
# doubles per (pairs, n) array in the blocks of the sampled checks (64 KiB)
_BLOCK_VALUES = 1 << 13


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
            raise SolverError(f"line search stalled in monotone solve "
                              f"(residual {rnorm:.3e}, tol {tol:.3e})", report)
        u_new = step[0]
        r_new = residual(u_new)
        # r carries M(u) - f, so r_new - r = M(u_new) - M(u)
        coercivity = min(coercivity, float(_monotonicity_ratios(
            (r_new - r).values, (u_new - u).values, grid.h, params.p)))
        u, r = u_new, r_new
    raise SolverError(f"no convergence in {config.max_iter} iterations "
                      f"(residual {rnorm:.3e}, tol {tol:.3e})", report)


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


def monotonicity_sweep(params: ProblemParams, n_pairs: int = 10000,
                       rng: np.random.Generator | None = None,
                       grid: Grid | None = None) -> tuple[float, int]:
    """Sample (Mu - Mw, u - w)_2 / ||u - w||_{1,p}^p over random pairs, p > 2.

    Pair scales span four decades. Returns the smallest sampled ratio and
    the count of nonpositive samples; strong monotonicity of M predicts a
    strictly positive minimum. Pairs are drawn one at a time, in a fixed
    generator order, and evaluated in blocks of rows.
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
    h, n = grid.h, grid.n_interior
    worst = math.inf
    violations = 0
    for rows in _blocks(n_pairs, _block_rows(grid)):
        pair = np.empty((rows, 2, n))
        scale = np.empty((rows, 2))
        for j in range(rows):
            for k in range(2):
                scale[j, k] = 10.0 ** rng.uniform(-2.0, 2.0)
                rng.standard_normal(n, out=pair[j, k])
        pair *= scale[..., None]
        require_finite(pair)
        u, w = pair[:, 0], pair[:, 1]
        ru = residual_original_values(u, h, op)
        rw = residual_original_values(w, h, op)
        du, dr = u - w, ru - rw
        for x in (ru, rw, du, dr):
            require_finite(x)
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

    as a guaranteed lower bound for the monotonicity ratio. Its deficit
    against 1 scales exactly with r^2 when a pair is scaled into B_r, so the
    same generator state probed at two radii yields exactly r^2-related
    bounds. The sampled pairs mix far-apart fields with nearby ones. Pairs
    are drawn one at a time and evaluated in blocks of rows.
    """
    _check_ball(params, r)
    if grid is None:
        grid = Grid()
    bounds = [_certified_bounds(a, b, grid.h, params.p)
              for a, b in _ball_pairs(grid, r, n_pairs, rng)]
    return np.concatenate(bounds) if bounds else np.empty(0)


def _check_ball(params: ProblemParams, r: float) -> None:
    if not (1.0 < params.p < 2.0):
        raise ValueError("ball coercivity applies to 1 < p < 2")
    if r <= 0.0:
        raise ValueError("ball radius must be positive")


def _ball_pairs(grid: Grid, r: float, n_pairs: int,
                rng: np.random.Generator) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (a, b) of the sampled pairs in B_r.

    First n_pairs // 2 far-apart pairs of fields with H^1_0 norms in
    [0.2 r, r]; then nearby pairs, a of norm at most 0.9 r and b = a + a
    random step of H^1_0 length 0.05 r (dropped if the step draw is zero).
    Every draw is made in the order of a pair-by-pair loop. Scaling by a
    power of two is exact, so these blocks at r = 1, times r, are bitwise
    the blocks drawn at r.
    """
    h, n = grid.h, grid.n_interior
    rows = _block_rows(grid)
    n_far = n_pairs // 2
    for count in _blocks(n_far, rows):
        raw = np.empty((count, 2, n))
        norm = np.empty((count, 2))
        for j in range(count):
            for k in range(2):
                rng.standard_normal(n, out=raw[j, k])
                norm[j, k] = r * rng.uniform(0.2, 1.0)
        pair = _with_h10_norm(raw, norm, h)
        yield pair[:, 0], pair[:, 1]
    for count in _blocks(n_pairs - n_far, rows):
        raw = np.empty((count, 2, n))
        norm = np.empty(count)
        for j in range(count):
            rng.standard_normal(n, out=raw[j, 0])
            norm[j] = 0.9 * r * rng.uniform(0.2, 1.0)
            rng.standard_normal(n, out=raw[j, 1])
        a, step = _with_h10_norm(raw[:, 0], norm, h), raw[:, 1]
        hn = h10_values(gradient_values(step, h), h)
        keep = hn != 0.0
        a = a[keep]
        b = a + ((0.05 * r) / hn[keep])[:, None] * step[keep]
        require_finite(b)
        yield a, b


def _with_h10_norm(values: np.ndarray, norm: np.ndarray, h: float) -> np.ndarray:
    """Each row of values rescaled to the H^1_0 norm given in norm."""
    scale = norm / h10_values(gradient_values(values, h), h)
    out = values * scale[..., None]
    require_finite(out)
    return out


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
    return float(np.min(ball_coercivity_samples(params, r, n_pairs, rng, grid)))


def default_ball_radius(params: ProblemParams, grid: Grid | None = None,
                        seed: int = 7) -> float:
    """Largest dyadic r <= 1 whose sampled coercivity bound stays >= 0.5.

    The bound's deficit against 1 scales exactly with r^2 on the same pairs
    (ball_coercivity_samples), so ball_coercivity_bound is evaluated once, at
    r = 1 from default_rng(seed), and r = 2^-j is the largest with
    1 - 4^-j * (1 - B_1) >= 0.5, j <= 29. The bound depends on p, the grid
    and the seed alone (gamma and lam never enter), so the radius is cached
    per (p, grid, seed).
    """
    _check_ball(params, 1.0)
    return _ball_radius(params.p, grid if grid is not None else Grid(), seed)


@functools.lru_cache(maxsize=64)
def _ball_radius(p: float, grid: Grid, seed: int) -> float:
    params = ProblemParams(p=p, gamma=0.0, lam=0.0)
    deficit = 1.0 - ball_coercivity_bound(params, 1.0,
                                          rng=np.random.default_rng(seed), grid=grid)
    if not deficit <= 0.5 * 4.0 ** 29:
        raise SolverError("no dyadic radius with positive sampled coercivity")
    j = 0 if deficit <= 0.5 else math.ceil(0.5 * math.log2(2.0 * deficit))
    return 0.5 ** j


def solve_monotone_ball(f: Field, params: ProblemParams,
                        config: SolverConfig | None = None,
                        radius: float | None = None,
                        u0: Field | None = None) -> SolveReport:
    """Solve the transformed-operator equation A v = f inside a coercivity ball.

    Newton on the exact residual with the self-regularizing Jacobian
    jacobian_transformed, an Armijo search on the dual norm of the residual
    and a damped Picard fallback. The iteration fails informatively if an iterate
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

    def trial(w: Field) -> tuple[float, tuple[Field, float]]:
        rw = residual(w)
        merit = dual_norm(rw)
        return merit, (rw, merit)

    r = residual(v)
    tol = max(config.tol_abs, config.tol_rel * dual_norm(f))
    rnorm = dual_norm(r)
    coercivity = math.inf
    for it in range(config.max_iter + 1):
        report = SolveReport(solution=v, iterations=it, final_residual=rnorm,
                             coercivity_estimate=coercivity,
                             ball_radius_used=radius)
        if rnorm <= tol:
            return report
        if it == config.max_iter:
            break
        dirs = newton_then_picard(jacobian_transformed(v, params), r)
        step = damped_step(v, rnorm, ((d, -rnorm) for d in dirs), trial)
        if step is None:
            raise SolverError("line search stalled in ball-restricted solve",
                              report)
        v_new, (r_new, rnorm_new) = step
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
        v, r, rnorm = v_new, r_new, rnorm_new
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
