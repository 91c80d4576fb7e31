"""Reference implementations the tests check the package against.

No package code calls these, so they live under tests/: the linear
eigenpairs by shifted inverse iteration and by a Rayleigh-quotient search (a
cross-check of the closed form in spectrum), the positive and negative parts
of a field, the p-Laplacian dual vector written out on its own, and plain
bisection, the reference for the half-eigenvalue root finder, the Fucik
sweep as a loop over samples and hump counts, the reference for the
array sweep, and the sampled p > 2 checks as first blocked (scales from rng.uniform, pair[j, k]
fills, norms taken per use) and the coercivity-ball samples as blocked
before the proven radius retired them from the solves, the bit-for-bit
references for monotone's samplers, the trace corrector's arithmetic
before its one-pass bordered solve, the bit-for-bit reference for the trace,
and the two monotone solves as Field loops (a Field per iterate, residual
and direction, each gradient taken where it is used), the bit-for-bit
references for the array solves.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from fucik_branch import continuation, monotone
from fucik_branch._tridiag import symmetric_tridiag_apply, thomas_solve
from fucik_branch.grid import (Field, Grid, dual_norm, element_gradients, gradient_values,
                               h10_norm, h10_values, inner_l2, laplacian_solve_values,
                               require_finite)
from fucik_branch.halfeig import FucikPoint, _check_length
from fucik_branch.monotone import (TOL_ABS, TOL_REL, SolveReport, SolverError,
                                   VectorInequalityReport, _block_rows, _blocks,
                                   _certified_bounds, _monotonicity_ratios,
                                   default_ball_radius)
from fucik_branch.quasilinear import (Jacobian, ProblemParams, _residual, energy,
                                      jacobian_original, jacobian_transformed,
                                      residual_original, residual_transformed)
from fucik_branch.spectrum import EigenPair, _check_index, closed_form_eigenvalue


def eigenpair_iterative(grid: Grid, k: int, tol: float = 1e-12,
                        max_iter: int = 200) -> EigenPair:
    """The k-th eigenpair by shifted inverse iteration with Thomas solves.

    The shift comes from the closed form, offset so the shifted matrix stays
    safely nonsingular; the start vector is a fixed-seed random vector so the
    agreement with the closed form is a genuine cross-check.
    """
    _check_index(grid, k)
    n = grid.n_interior
    h2 = grid.h * grid.h
    diag = np.full(n, 2.0 / h2)
    off = np.full(n - 1, -1.0 / h2)
    target = closed_form_eigenvalue(grid, k)
    gap = closed_form_eigenvalue(grid, min(k + 1, n)) - target if k < n else \
        target - closed_form_eigenvalue(grid, k - 1) if k > 1 else target
    shift = target - 1e-3 * abs(gap) - 1e-9 * target

    rng = np.random.default_rng(12345 + k)
    v = rng.standard_normal(n)
    v /= math.sqrt(grid.h * float(np.dot(v, v)))
    lam = target
    for _ in range(max_iter):
        try:
            w = thomas_solve(off, diag - shift, v)
        except ValueError:
            shift *= 1.0 - 1e-10
            continue
        w /= math.sqrt(grid.h * float(np.dot(w, w)))
        av = symmetric_tridiag_apply(diag, off, w)
        lam = grid.h * float(np.dot(av, w))
        res = av - lam * w
        v = w
        if math.sqrt(grid.h * float(np.dot(res, res))) <= tol * max(1.0, lam):
            break
        shift = lam  # Rayleigh-quotient update after the first locked step
    else:
        raise RuntimeError(f"inverse iteration did not converge for k={k}")
    return EigenPair(k=k, value=lam, vector=Field(grid, _fix_sign(v)))


def _fix_sign(vals: np.ndarray) -> np.ndarray:
    """vals, or -vals, so that the first nonzero value is positive."""
    scale = np.max(np.abs(vals))
    for v in vals:
        if abs(v) > 1e-14 * scale:
            return vals if v > 0.0 else -vals
    raise ValueError("eigenvector is numerically zero")


def rayleigh_lambda1(grid: Grid, trials: int, rng: np.random.Generator | None = None,
                     max_iter: int = 120) -> float:
    """Minimize the discrete Rayleigh quotient over random starts.

    Projected gradient descent preconditioned by the stiffness matrix, with an
    exact line search realized as a 2x2 eigenproblem on span{u, gradient}.
    The returned value is the smallest quotient seen over all trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    n = grid.n_interior
    h = grid.h
    h2 = h * h
    diag = np.full(n, 2.0 / h2)
    off = np.full(n - 1, -1.0 / h2)

    def quotient(u: np.ndarray) -> float:
        au = symmetric_tridiag_apply(diag, off, u)
        return float(np.dot(au, u) / np.dot(u, u))

    best = math.inf
    for _ in range(trials):
        u = rng.standard_normal(n)
        u /= math.sqrt(h * float(np.dot(u, u)))
        q = quotient(u)
        for _ in range(max_iter):
            g = u - q * laplacian_solve_values(grid, u)
            # orthonormalize {u, g} in the discrete L2 inner product
            g = g - h * float(np.dot(g, u)) * u
            gn = math.sqrt(h * float(np.dot(g, g)))
            if gn <= 1e-15:
                break
            g /= gn
            s11 = h * float(np.dot(symmetric_tridiag_apply(diag, off, u), u))
            s12 = h * float(np.dot(symmetric_tridiag_apply(diag, off, u), g))
            s22 = h * float(np.dot(symmetric_tridiag_apply(diag, off, g), g))
            evals, evecs = np.linalg.eigh(np.array([[s11, s12], [s12, s22]]))
            a, b = evecs[:, 0]
            u = a * u + b * g
            u /= math.sqrt(h * float(np.dot(u, u)))
            qnew = float(evals[0])
            if q - qnew <= 1e-15 * max(1.0, q):
                q = qnew
                break
            q = qnew
        best = min(best, q)
    return best


def pos_neg_parts(u: Field) -> tuple[Field, Field]:
    """Split u into (u_plus, u_minus), both nonnegative, with u = u_plus - u_minus."""
    return (Field(u.grid, np.maximum(u.values, 0.0)),
            Field(u.grid, np.maximum(-u.values, 0.0)))


def apply_p_laplacian(u: Field, p: float) -> Field:
    """Dual vector of the p-Laplacian with elementwise-constant gradients.

    The flux on each element is |g|^(p-2) g, written as sign(g)|g|^(p-1) so the
    value at g = 0 is 0 for every p > 1.
    """
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    g = element_gradients(u)
    flux = np.sign(g) * np.abs(g) ** (p - 1.0)
    return Field(u.grid, -np.diff(flux) / u.grid.h)


def reference_bisect(f, lo: float, hi: float) -> float:
    """Root of f in [lo, hi] to adjacent doubles; f > 0 left of it, f <= 0 right."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def reference_fucik_curve_points(length: float, lambda_max: float,
                                 n_samples: int) -> list[FucikPoint]:
    """The Fucik sweep one sample and one hump count pair at a time.

    Same rows, labels and order as halfeig.fucik_curve_points: equal
    lambda_minus within a sample keep the first pair (setdefault), and each
    sample is sorted by lambda_minus.
    """
    _check_length(length)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    lam1 = (math.pi / length) ** 2
    if not (math.isfinite(lambda_max) and lambda_max > lam1):
        raise ValueError("lambda_max must be finite and exceed the principal eigenvalue")
    lam_lo = lam1 * (1.0 + 1e-9)
    points: list[FucikPoint] = []
    for lp in np.linspace(lam_lo, lambda_max, n_samples):
        lp = float(lp)
        rows: dict[float, tuple[int, int]] = {}
        n_plus = 0
        while (rem := length - n_plus * math.pi / math.sqrt(lp)) > 0.0:
            for n_minus in (n_plus - 1, n_plus, n_plus + 1):
                lm = (n_minus * math.pi / rem) ** 2
                if n_minus >= 1 and lam_lo <= lm <= lambda_max:
                    rows.setdefault(lm, (n_plus, n_minus))
            n_plus += 1
        points.extend(FucikPoint(lp, lm, *rows[lm]) for lm in sorted(rows))
    return points


def reference_monotonicity_sweep(params: ProblemParams, n_pairs: int = 10000,
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
        ru = _residual(u, gradient_values(u, h), h, params, 1.0)
        rw = _residual(w, gradient_values(w, h), h, params, 1.0)
        du, dr = u - w, ru - rw
        for x in (ru, rw, du, dr):
            require_finite(x)
        ratio = _monotonicity_ratios(dr, du, h, params.p)
        ratio = ratio[np.isfinite(ratio)]
        if ratio.size:
            worst = min(worst, float(np.min(ratio)))
            violations += int(np.count_nonzero(ratio <= 0.0))
    return worst, violations


def reference_check_vector_inequalities(p: float, n_samples: int,
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


def reference_blocked_ball_samples(params: ProblemParams, r: float, n_pairs: int,
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


def reference_trace_residual(grid: Grid):
    """continuation._residual through the Field functions, for one grid: a
    Field built around the values, and the gradient and coefficient passed
    in ignored (the transformed residual takes its own norm coefficient)."""
    def residual(values: np.ndarray, g: np.ndarray, h: float, params: ProblemParams,
                 coeff: float) -> np.ndarray:
        fn = residual_transformed if params.p < 2.0 else residual_original
        return fn(Field(grid, values), params).values

    return residual


def reference_trace_jacobian(values: np.ndarray, g: np.ndarray, grid: Grid,
                             params: ProblemParams, transformed: bool) -> Jacobian:
    """continuation._jacobian through the Field functions, the gradient passed
    in ignored."""
    fn = jacobian_transformed if transformed else jacobian_original
    return fn(Field(grid, values), params)


def reference_bordered_solve(jac: Jacobian, u: np.ndarray, row_u: np.ndarray,
                             row_lam: float, r: np.ndarray, c: float
                             ) -> tuple[np.ndarray, float]:
    """continuation._bordered_solve one right-hand side at a time: each
    tridiagonal solve a thomas_solve, Sherman-Morrison for the rank-one term,
    and a first bordering pass that starts from du = 0, dlam = 0."""
    h = jac.grid.h

    def solve(rhs: np.ndarray) -> np.ndarray:
        return thomas_solve(jac.off, jac.diag, rhs)

    try:
        if jac.rank_one is not None:
            a, b = jac.rank_one
            t2 = solve(a)
            denom = 1.0 + h * float(np.dot(b, t2))
            if denom == 0.0:
                raise ValueError("singular rank-one update")

            def solve(rhs: np.ndarray, tri=solve) -> np.ndarray:
                t1 = tri(rhs)
                return t1 - t2 * (h * float(np.dot(b, t1)) / denom)

        y = solve(u)
    except ValueError as exc:
        raise SolverError(f"singular bordered system: {exc}")
    schur = h * float(np.dot(row_u, y)) + row_lam
    if schur == 0.0:
        raise SolverError("singular bordered system: zero Schur complement")
    du, dlam = np.zeros_like(u), 0.0
    for refine in (False, True):
        res_u = dlam * u - r - jac.apply_values(du)
        res_c = -c - h * float(np.dot(row_u, du)) - row_lam * dlam
        if refine and math.sqrt(h * float(np.dot(res_u, res_u)) + res_c * res_c) \
                <= continuation._REFINE_TOL * math.sqrt(h * float(np.dot(r, r)) + c * c):
            break
        x = solve(res_u)
        d = (res_c - h * float(np.dot(row_u, x))) / schur
        du, dlam = du + (x + d * y), dlam + d
    return du, dlam


def reference_newton_then_picard(jac: Jacobian, r: Field) -> Iterator[Field]:
    """monotone.newton_then_picard on Fields: the Newton direction unless its
    solve raises ValueError or is not finite (which Field rejects), then the
    Picard direction."""
    try:
        newton = Field(r.grid, -jac.solve_values(r.values))
    except ValueError:
        pass
    else:
        yield newton
    yield Field(r.grid, -laplacian_solve_values(r.grid, r.values))


def reference_solve_monotone(f: Field, params: ProblemParams, u0: Field | None = None,
                             tol_abs: float = TOL_ABS, tol_rel: float = TOL_REL
                             ) -> SolveReport:
    """monotone.solve_monotone as a Field loop, which takes the gradient of an
    iterate once for its merit, once for its Jacobian and once for its
    residual. monotone._MAX_ITER and monotone.damped_step are looked up at
    each call, so a test that patches them patches this loop too."""
    if params.p <= 2.0:
        raise ValueError(f"solve_monotone needs p > 2, got p={params.p}; use the ball solve")
    grid = f.grid
    max_iter = monotone._MAX_ITER

    def residual(u: Field) -> Field:
        return residual_original(u, params) - f

    def merit(u: Field) -> float:
        return energy(u, params) - inner_l2(f, u)

    u = u0 if u0 is not None else Field(grid, laplacian_solve_values(grid, f.values))
    r = residual(u)
    tol = max(tol_abs, tol_rel * dual_norm(f))
    coercivity = math.inf
    for it in range(max_iter + 1):
        rnorm = dual_norm(r)
        report = SolveReport(solution=u, iterations=it, final_residual=rnorm,
                             coercivity_estimate=coercivity,
                             ball_radius_used=math.inf)
        if rnorm <= tol:
            return report
        if it == max_iter:
            break
        m0 = merit(u)
        dirs = reference_newton_then_picard(jacobian_original(u, params), r)
        step = monotone.damped_step(u, m0, ((d, inner_l2(r, d)) for d in dirs),
                                    lambda w: (merit(w), None),
                                    slack=32.0 * np.finfo(float).eps * abs(m0))
        if step is None:
            raise SolverError(f"line search stalled in monotone solve "
                              f"(residual {rnorm:.3e}, tol {tol:.3e})", report)
        u_new = step[0]
        r_new = residual(u_new)
        coercivity = min(coercivity, float(_monotonicity_ratios(
            (r_new - r).values, (u_new - u).values, grid.h, params.p)))
        u, r = u_new, r_new
    raise SolverError(f"no convergence in {max_iter} iterations "
                      f"(residual {rnorm:.3e}, tol {tol:.3e})", report)


def reference_solve_monotone_ball(f: Field, params: ProblemParams,
                                  radius: float | None = None, u0: Field | None = None,
                                  tol_abs: float = TOL_ABS, tol_rel: float = TOL_REL
                                  ) -> SolveReport:
    """monotone.solve_monotone_ball as a Field loop, which takes the gradient
    of an iterate for its ball test, its Jacobian and its residual apart;
    monotone._MAX_ITER and monotone.damped_step are looked up at each call."""
    if not (1.0 < params.p < 2.0):
        raise ValueError("solve_monotone_ball requires 1 < p < 2")
    grid = f.grid
    max_iter = monotone._MAX_ITER
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
    tol = max(tol_abs, tol_rel * dual_norm(f))
    rnorm = dual_norm(r)
    coercivity = math.inf
    for it in range(max_iter + 1):
        report = SolveReport(solution=v, iterations=it, final_residual=rnorm,
                             coercivity_estimate=coercivity,
                             ball_radius_used=radius)
        if rnorm <= tol:
            return report
        if it == max_iter:
            break
        dirs = reference_newton_then_picard(jacobian_transformed(v, params), r)
        step = monotone.damped_step(v, rnorm, ((d, -rnorm) for d in dirs), trial)
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
    raise SolverError(f"no convergence in {max_iter} iterations "
                      f"(residual {rnorm:.3e}, tol {tol:.3e})", report)
