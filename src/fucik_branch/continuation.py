"""Spectral decomposition bookkeeping and pseudo-arclength branch tracing.

Solution branches of -Delta_p u - Delta u - gamma*u^- = lambda*u bifurcate
from (lambda_k^which, 0): for p > 2 out of zero in the original variable, for
1 < p < 2 out of zero in the rescaled variable, which corresponds to
bifurcation from infinity of the original problem. A branch is traced by a
Keller predictor-corrector: the first step leaves the seed along the
half-eigenfunction with lambda frozen, and later steps constrain the
corrector to the plane through the secant point normal to the secant
tangent. For p > 2, once four points past the seed are accepted, the
corrector starts from their cubic extrapolation instead of the secant
point, which leaves most steps one Newton iteration (Allgower & Georg,
Numerical Continuation Methods, 1990, ch. 6). The corrector is a damped
semismooth Newton method on the bordered system (residual + arclength
plane), solved in O(n) by block elimination on one factorization of the
tridiagonal (plus rank-one) Jacobian, refined once only where the first
pass misses its residual test. It runs in monotone.newton, the loop of the
monotone solves, damped on the norm of (residual, arclength defect), and
takes at most _CORRECTOR_MAX_ITER = 13 Newton steps, so it tests 14
iterates; where it fails it raises SolverError, and trace_branch halves the
step. The first pass starts from (-r, -c), and both of its solves,
J^{-1} u and J^{-1}(-r), come with the factorization (see _tridiag and
Jacobian.factor). Residuals and Jacobians are taken on the nodal value
arrays, from one gradient per iterate, which also gives the accepted
point's H^1_0 norm. Each trace ends in one Termination(kind, mu=None,
detail=""): kind MeetsInfinity, MeetsTrivial (with the half-eigenvalue mu
the branch returns to), MaxSteps or CorrectorFailure (with its detail).

A p = 3 point (k = 2, gamma = 0.5) costs about 200 us at n = 199 and 230 us
at n = 399, 45 % and 50 % of it in the tridiagonal factor-and-solve; the rest
is some hundred small numpy calls per point, so halving n saves an eighth.
A 200-point trace takes about 40, 46, 60 and 130 ms at n = 199, 399, 799 and
3199 (p = 1.5: 118 ms at 199); one BLAS thread, CPU time, 2-vCPU Xeon VM,
Python 3.11, numpy 2.4.

The Lyapunov-Schmidt split u = alpha*e_k + v with v orthogonal to e_k, the
spectral cones around +-e_k (cone_test(u, k, eta, side)), and the fixed-point
defect built from T_lambda(u) = M^{-1}(lambda u) - (-Delta)^{-1}(lambda u)
live here as well, as instrumentation for the traced branches.
"""

from __future__ import annotations

import collections
import logging
import math
from dataclasses import dataclass

import numpy as np

from .grid import (Field, Grid, gradient_values, inner_l2, l2_norm,
                   laplacian_solve_values)
from .halfeig import gamma_window, split_eigenvalues
from .monotone import (MAX_HALVINGS, STALLED, SolverError, newton, solve_monotone,
                       solve_monotone_ball)
from .quasilinear import Jacobian, ProblemParams, _check_p_gamma, _jacobian, _residual
# perfbench/tracer.py patches these by name here; the trace calls the kernels
# _residual and _jacobian above
from .quasilinear import (jacobian_original, jacobian_transformed,  # noqa: F401
                          residual_original, residual_transformed)
from .spectrum import closed_form_eigenvalue, eigenpair

logger = logging.getLogger("fucik_branch.continuation")

# step-length policy: first and largest arclength step, Newton steps per
# corrector call (so 14 tests of its iterates); a trace meets the trivial
# branch below _ZERO_CAP in L2 norm within _TRIVIAL_MATCH_TOL of a
# half-eigenvalue other than its seed
_DS0 = 5e-3
_DS_MAX = 0.25
_CORRECTOR_MAX_ITER = 13
# corrector tolerance, relative to max(1, |lambda| ||u||_2), and the L2 norm
# above which a trace meets infinity
_CORRECTOR_TOL = 1e-10
_NORM_CAP = 1e2
# the bordered solve refines once unless its first pass already leaves a
# bordered residual at most this fraction of ||(r, c)||
_REFINE_TOL = 1e-12
_ZERO_CAP = 1e-5
_TRIVIAL_MATCH_TOL = 1e-2
_SLOPE_POINTS = 25  # points near the seed that scaling_slope fits
# tolerances of the monotone solve inside ls_residual
_LS_TOL_ABS = 1e-12
_LS_TOL_REL = 1e-14


@dataclass(frozen=True, eq=False)
class LSDecomposition:
    """Split u = alpha*e_k + v with (e_k, v)_2 = 0."""

    alpha: float
    v: Field


@dataclass(frozen=True, eq=False)
class BranchPoint:
    """One accepted continuation point; norms refer to the traced variable.

    For a transformed trace (1 < p < 2) h12_original carries the
    back-transformed ||u||_{1,2}; it is None for p > 2. corrector_tol is the
    effective residual tolerance the corrector met at this point, and
    iterations the Newton steps it took to meet it.
    """

    s: float
    lam: float
    u: Field
    alpha: float
    l2: float
    h12: float
    in_cone: bool
    corrector_tol: float
    iterations: int
    h12_original: float | None = None


_TERMINATION_KINDS = ("MeetsInfinity", "MeetsTrivial", "MaxSteps", "CorrectorFailure")


@dataclass(frozen=True)
class Termination:
    """How a trace ended: kind is one of _TERMINATION_KINDS; mu, given exactly
    for MeetsTrivial, is the half-eigenvalue the branch returns to; detail
    says why a CorrectorFailure trace stopped."""

    kind: str
    mu: float | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _TERMINATION_KINDS:
            raise ValueError(f"termination kind must be one of {_TERMINATION_KINDS}, "
                             f"got {self.kind!r}")
        if (self.mu is None) == (self.kind == "MeetsTrivial"):
            raise ValueError("a termination carries mu exactly when it is MeetsTrivial")


@dataclass(frozen=True)
class BranchSeed:
    """Which bifurcation point to leave from, with which exponent, and the
    amplitude alpha0 of the seed point along the half-eigenfunction."""

    k: int
    which: int
    gamma: float
    p: float
    alpha0: float = 1e-3

    def __post_init__(self) -> None:
        if not (_is_int(self.k) and self.k >= 1):
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not (_is_int(self.which) and self.which in (1, 2)):
            raise ValueError(f"which must be 1 or 2, got {self.which!r}")
        _check_p_gamma(self.p, self.gamma)
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0.0):
            raise ValueError(f"alpha0 must be finite and positive, got {self.alpha0}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class Branch:
    seed: BranchSeed
    points: tuple[BranchPoint, ...]
    termination: Termination
    lambda_seed: float
    eta: float


@dataclass(frozen=True)
class LocalizationReport:
    """Largest radius around the seed inside which every point sits in its cone
    with the correct alpha sign; rho0 = inf when no point violates."""

    rho0: float
    checked: int
    violations: int


def decompose(u: Field, k: int) -> LSDecomposition:
    """Project u onto the k-th eigenvector and its L2 complement."""
    ek = eigenpair(u.grid, k).vector
    alpha = inner_l2(ek, u)
    return LSDecomposition(alpha=alpha, v=u - alpha * ek)


def recompose(alpha: float, v: Field, k: int) -> Field:
    ek = eigenpair(v.grid, k).vector
    return Field(v.grid, alpha * ek.values + v.values)


def cone_test(u: Field, k: int, eta: float, side: int) -> bool:
    """Membership of u in the open cone |(e_k,u)_2| > eta*||u||_2, eta > 0,
    around +e_k (side +1) or -e_k (side -1)."""
    if not eta > 0.0:
        raise ValueError("the cone parameter eta must be positive")
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    nrm = l2_norm(u)
    if nrm == 0.0:
        raise ValueError("cone test is undefined for the zero field")
    proj = inner_l2(eigenpair(u.grid, k).vector, u)
    return proj > eta * nrm if side == 1 else proj < -eta * nrm


def _project_out(ek_vals: np.ndarray, vals: np.ndarray, h: float) -> np.ndarray:
    return vals - (h * float(np.dot(ek_vals, vals))) * ek_vals


def ls_residual(alpha: float, lam: float, v: Field, params: ProblemParams,
                k: int) -> tuple[float, Field]:
    """Defects of the reduced fixed-point system at (alpha, lam, v).

    With u = alpha*e_k + v and T(u) = M^{-1}(lam*u) - (-Delta)^{-1}(lam*u),
    returns (scalar defect, complement defect):
        alpha - alpha*lam/lambda_k - (T(u), e_k)_2
        v - P_k(lam*(-Delta)^{-1} v) - P_k(T(u))
    Both vanish exactly at solutions of the full equation; M is params' operator
    at lam = 0. For 1 < p < 2 the same defects are formed for the transformed
    operator on its proven coercivity ball, which u must lie in.
    """
    grid = v.grid
    ek = eigenpair(grid, k)
    u = recompose(alpha, v, k)
    rhs = Field(grid, lam * u.values)
    op = ProblemParams(p=params.p, gamma=params.gamma, lam=0.0)
    solve = solve_monotone if params.p > 2.0 else solve_monotone_ball
    rep = solve(rhs, op, u0=u, tol_abs=_LS_TOL_ABS, tol_rel=_LS_TOL_REL)
    t_vals = rep.solution.values - laplacian_solve_values(grid, rhs.values)
    h = grid.h
    scalar = alpha - alpha * lam / ek.value \
        - h * float(np.dot(t_vals, ek.vector.values))
    av = laplacian_solve_values(grid, lam * v.values)
    dv = v.values - _project_out(ek.vector.values, av, h) \
        - _project_out(ek.vector.values, t_vals, h)
    return scalar, Field(grid, dv)


def _bordered_solve(jac: Jacobian, u: np.ndarray, row_u: np.ndarray,
                    row_lam: float, r: np.ndarray, c: float
                    ) -> tuple[np.ndarray, float]:
    """Solve [[J, -u], [<row_u, .>_2, row_lam]] (du, dlam) = -(r, c) by block elimination.

    One factorization of J serves all solves, and y = J^{-1} u and
    x = J^{-1}(-r) come with it; dlam comes from the Schur complement
    <row_u, y>_2 + row_lam. A second pass refines on the bordered residual
    only when the first misses ||residual|| <= _REFINE_TOL * ||(r, c)||:
    plain bordering loses digits when J is (nearly) singular, as at a seed
    on a discrete eigenvalue."""
    h = jac.grid.h
    try:
        solve, (y, x) = jac.factor(u, -r)
    except ValueError as exc:
        raise SolverError(f"singular bordered system: {exc}")
    schur = h * float(row_u.dot(y)) + row_lam
    if schur == 0.0:
        raise SolverError("singular bordered system: zero Schur complement")
    dlam = (-c - h * float(row_u.dot(x))) / schur
    du = x + dlam * y
    res_u = dlam * u - r - jac.apply_values(du)
    res_c = -c - h * float(row_u.dot(du)) - row_lam * dlam
    if math.sqrt(h * float(res_u.dot(res_u)) + res_c * res_c) \
            <= _REFINE_TOL * math.sqrt(h * float(r.dot(r)) + c * c):
        return du, dlam
    x = solve(res_u)
    d = (res_c - h * float(row_u.dot(x))) / schur
    return du + (x + d * y), dlam + d


def _corrector(grid: Grid, p: float, gamma: float, u0: np.ndarray, lam0: float,
               row_u: np.ndarray, row_lam: float, c0: float
               ) -> tuple[np.ndarray, float, int, float, np.ndarray, float]:
    """Bordered Newton for F(u, lam) = 0 with <row_u, u>_2 + row_lam*lam = c0.

    F is the traced equation on grid with exponent p and weight gamma, for
    1 < p < 2 in the rescaled variable. Damped on the norm of (F, constraint defect) over the stacked (u, lam);
    converged when both parts are at most _CORRECTOR_TOL max(1, |lam| ||u||_2).
    Each iterate's element gradients are taken once: they give its residual
    and, if a step leaves it, its Jacobian. Returns (u, lam, steps, that
    tolerance, the element gradients of u, ||u||_2)."""
    transformed = p < 2.0
    h = grid.h
    n = u0.size
    step = np.empty(n + 1)  # (du, dlam); damped_step reads it only within its step

    def trial(x: np.ndarray) -> tuple[float, tuple]:
        u, lam = x[:n], x.item(n)
        g = gradient_values(u, h)
        params = ProblemParams(p=p, gamma=gamma, lam=lam)
        coeff = math.sqrt(h * float(g.dot(g))) ** (4.0 - p) if transformed else 1.0
        r = _residual(u, g, h, params, coeff)
        c = h * float(row_u.dot(u)) + row_lam * lam - c0
        rr = h * float(r.dot(r))
        l2 = math.sqrt(h * float(u.dot(u)))
        tol_eff = _CORRECTOR_TOL * max(1.0, abs(lam) * l2)
        return math.sqrt(rr + c * c), (r, c, math.sqrt(rr), tol_eff, g, params, l2)

    def directions(x: np.ndarray, m0: float, data: tuple) -> list[tuple[np.ndarray, float]]:
        jac = _jacobian(x[:n], data[4], grid, data[5], transformed)
        step[:n], step[n] = _bordered_solve(jac, x[:n], row_u, row_lam, data[0], data[1])
        if not np.isfinite(step).all():
            raise SolverError("non-finite Newton step")
        return [(step, -m0)]

    x = np.empty(n + 1)
    x[:n], x[n] = u0, lam0
    x, _, (_, _, _, tol_eff, g, _, l2), it, stop = newton(
        x, *trial(x), trial, directions,
        lambda d: d[2] <= d[3] and abs(d[1]) <= d[3], _CORRECTOR_MAX_ITER)
    if stop is STALLED:
        raise SolverError("corrector line search stalled")
    if stop is not None:
        raise SolverError(f"no corrector convergence in {_CORRECTOR_MAX_ITER} iterations")
    return x[:n], x.item(n), it, tol_eff, g, l2


def _corrector_start(p: float, history: collections.deque, s_next: float,
                     pred_u: np.ndarray, pred_lam: float
                     ) -> tuple[np.ndarray, float]:
    """Where the corrector starts the step to arclength s_next.

    For p > 2 with four accepted points (s, u, lam) in history, the cubic
    Lagrange extrapolation through them; otherwise the secant point
    (pred_u, pred_lam). A fifth point saves Newton steps but can lead the
    corrector to another point of its plane: on the p = 4, k = 2 trace at
    n = 199 it moved s by 0.11 against the secant start, where four points
    stay within 2e-10. The transformed trace (1 < p < 2) keeps the secant
    start: where its corrector stalls depends on round-off, and with the
    quadratic start both p = 1.5, k = 2, gamma = 0.5 traces at n = 399 end
    in CorrectorFailure at the lambda ~ 25.1 stall, which = 1 after 145
    points and which = 2 after 118 (166 points and MaxSteps at 200 from the
    secant start). ROADMAP item 10, which replaces that corrector, is where
    this exception goes.
    """
    if p < 2.0 or len(history) < 4:
        return pred_u, pred_lam
    u_next, lam_next = 0.0, 0.0
    for i, (si, ui, li) in enumerate(history):
        w = 1.0  # math.prod's left-to-right product, without a generator
        for j, (sj, _, _) in enumerate(history):
            if j != i:
                w *= (s_next - sj) / (si - sj)
        u_next, lam_next = u_next + w * ui, lam_next + w * li
    return u_next, lam_next


def _trivial_candidates(grid: Grid, gamma: float) -> list[float]:
    """Half-eigenvalues of -u'' - gamma*u^- = lambda*u reachable at desk scale.

    The positive eigenfunction never feels the gamma term, so lambda_1 is
    always in the spectrum, and -e_1 contributes lambda_1 + gamma; higher
    pairs come from the split machinery where gamma is admissible.
    """
    lam1 = closed_form_eigenvalue(grid, 1)
    out = [lam1]
    if gamma > 0.0:
        out.append(lam1 + gamma)
    for j in range(2, min(12, grid.n_interior - 1)):
        if gamma > 0.0 and gamma >= gamma_window(grid, j):
            continue
        pair = split_eigenvalues(grid, j, gamma)
        out.extend([pair.lambda1, pair.lambda2])
    return out


def trace_branch(seed: BranchSeed, grid: Grid | None = None,
                 max_steps: int = 200) -> Branch:
    """Trace the solution branch leaving (lambda_k^which, 0).

    For p > 2 the traced variable is u itself; for 1 < p < 2 it is the
    rescaled variable, and each point additionally reports the
    back-transformed original norm. Each step is constrained to the plane
    through the secant point u + ds*t normal to the secant tangent t; for
    p > 2 the corrector starts from the cubic extrapolation through the
    last four points past the seed (see _corrector_start), for 1 < p < 2
    from the secant point. A point's norms come from the gradient and u.u
    of the corrector's last iterate. The trace stops when the L2 norm exceeds
    _NORM_CAP (MeetsInfinity), collapses below _ZERO_CAP next to a different
    half-eigenvalue (MeetsTrivial), the step budget runs out (MaxSteps), or
    the corrector fails after MAX_HALVINGS step halvings (CorrectorFailure).
    The seed point has amplitude seed.alpha0 along the half-eigenfunction,
    and a trace takes at most max_steps points, the seed included; its
    corrector stops at _CORRECTOR_TOL.
    """
    if not (_is_int(max_steps) and max_steps >= 1):
        raise ValueError(f"max_steps must be an integer >= 1, got {max_steps!r}")
    if grid is None:
        grid = Grid()
    pair = split_eigenvalues(grid, seed.k, seed.gamma)
    lam_star = pair.lambda1 if seed.which == 1 else pair.lambda2
    vdir = pair.v1 if seed.which == 1 else pair.v2
    side = 1 if seed.which == 1 else -1
    ek = eigenpair(grid, seed.k)
    ek_vals, h = ek.vector.values, grid.h

    a0 = seed.alpha0 * inner_l2(ek.vector, vdir)
    try:
        u, lam, iters, tol_eff, g, l2 = _corrector(
            grid, seed.p, seed.gamma, seed.alpha0 * vdir.values, lam_star,
            ek.vector.values, 0.0, a0)
    except SolverError as exc:
        raise SolverError(f"seed correction failed for {seed}: {exc}") from exc

    def make_point(s: float, u_vals: np.ndarray, lam_val: float, tol_val: float,
                   iters: int, g: np.ndarray, l2: float) -> BranchPoint:
        # h10_norm and inner_l2 of the point's field, on its arrays
        h12 = math.sqrt(h * float(g.dot(g)))
        h12_orig = None
        if seed.p < 2.0 and h12 > 0.0:
            # the back-transformed ||u||_{1,2} of the field v represents
            h12_orig = h12 ** (-1.0 / (1.0 - 0.5 * seed.p))
        alpha = h * float(ek_vals.dot(u_vals))
        # cone_test's comparison, on this point's own projection and norm
        return BranchPoint(
            s=s, lam=lam_val, u=Field(grid, u_vals), alpha=alpha, l2=l2, h12=h12,
            in_cone=side * alpha > pair.eta * l2,
            corrector_tol=tol_val, iterations=iters, h12_original=h12_orig)

    points = [make_point(0.0, u, lam, tol_eff, iters, g, l2)]
    # the last four accepted points after the seed, as (s, u, lam); the
    # seed's step froze lambda, so it would bend the extrapolation
    history = collections.deque(maxlen=4)
    t_u = vdir.values.copy()
    t_lam = 0.0
    ds = _DS0
    s = 0.0
    termination: Termination | None = None
    candidates: list[float] | None = None

    while len(points) < max_steps and termination is None:
        # the corrector gets MAX_HALVINGS + 1 tries, ds halved after each failure
        for _ in range(MAX_HALVINGS + 1):
            pred_u = u + ds * t_u
            pred_lam = lam + ds * t_lam
            c0 = h * float(t_u.dot(pred_u)) + t_lam * pred_lam
            u0, lam0 = _corrector_start(seed.p, history, s + ds, pred_u, pred_lam)
            try:
                u_new, lam_new, iters, tol_eff, g, l2 = _corrector(
                    grid, seed.p, seed.gamma, u0, lam0, t_u, t_lam, c0)
                break
            except SolverError as exc:
                failure = str(exc)
                ds *= 0.5
        else:
            termination = Termination("CorrectorFailure", detail=failure)
            break
        du = u_new - u
        step_len = math.sqrt(h * float(du.dot(du)) + (lam_new - lam) ** 2)
        if step_len <= 1e-14:
            termination = Termination("CorrectorFailure",
                                      detail="corrector stopped advancing")
            break
        s += step_len
        t_u = du / step_len
        t_lam = (lam_new - lam) / step_len
        u, lam = u_new, lam_new
        history.append((s, u, lam))
        points.append(make_point(s, u, lam, tol_eff, iters, g, l2))
        if iters <= 3:
            ds = min(ds * 1.4, _DS_MAX)
        elif iters >= 11:
            ds = max(ds * 0.6, 1e-12)
        l2u = points[-1].l2
        if l2u > _NORM_CAP:
            termination = Termination("MeetsInfinity")
        elif l2u < _ZERO_CAP:
            if candidates is None:
                candidates = _trivial_candidates(grid, seed.gamma)
            for mu in candidates:
                if abs(mu - lam_star) <= _TRIVIAL_MATCH_TOL:
                    continue
                if abs(lam - mu) <= _TRIVIAL_MATCH_TOL:
                    termination = Termination("MeetsTrivial", mu=mu)
                    break
    if termination is None:
        termination = Termination("MaxSteps")
    logger.info("branch %s: %d points, termination %s", seed, len(points),
                termination.kind)
    return Branch(seed=seed, points=tuple(points), termination=termination,
                  lambda_seed=lam_star, eta=pair.eta)


def localization_check(branch: Branch) -> LocalizationReport:
    """Empirical localization radius around the branch seed.

    A point violates if it leaves its side's cone or its alpha sign flips;
    rho0 is the distance of the nearest violating point to
    (lambda_k^which, 0) in the (lambda, ||u||_2) metric.
    """
    side = 1 if branch.seed.which == 1 else -1
    rho0 = math.inf
    violations = 0
    for pt in branch.points:
        alpha_ok = pt.alpha > 0.0 if side == 1 else pt.alpha < 0.0
        if pt.in_cone and alpha_ok:
            continue
        violations += 1
        rho0 = min(rho0, math.hypot(pt.lam - branch.lambda_seed, pt.l2))
    return LocalizationReport(rho0=rho0, checked=len(branch.points),
                              violations=violations)


def scaling_slope(branch: Branch) -> float:
    """Log-log slope of |lambda - lambda_seed| against |alpha| over the first
    _SLOPE_POINTS points."""
    xs = []
    ys = []
    for pt in branch.points[:_SLOPE_POINTS]:
        dev = abs(pt.lam - branch.lambda_seed)
        if dev > 1e-13 and abs(pt.alpha) > 0.0:
            xs.append(math.log(abs(pt.alpha)))
            ys.append(math.log(dev))
    if len(xs) < 3:
        return math.nan
    slope = np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0]
    return float(slope)


def newton_at_lambda(u0: Field, params: ProblemParams) -> Field:
    """The solution of the original equation at params.lam reached from u0,
    for p > 2: solve_monotone with f = 0.

    For lam below the first discrete eigenvalue the energy is convex and
    u = 0 its only critical point, so this probes the trivial-only region.
    """
    return solve_monotone(Field.zeros(u0.grid), params, u0).solution
