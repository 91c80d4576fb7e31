"""Residuals, Jacobians, and the infinity transform for the (p,2)-Laplacian problem.

The equation -Delta_p u - Delta u - gamma*u^- = lambda*u is handled in its
original variable for p > 2 and, for 1 < p < 2, also in the rescaled variable
v = u / ||u||_{1,2}^(2 - p/2), where the p-term picks up the coefficient
||v||_{1,2}^(4-p) and the problem bifurcates from zero instead of infinity.

Both forms share one residual kernel and one Jacobian assembly. The
Jacobians regularize themselves: for 1 < p < 2 they take the flux derivative
at gradients smoothed by _EPS_REG_SCALE * (mean |g| + 1), which stays finite
where a gradient vanishes. Residuals are never regularized, so converged
iterates solve the discrete equation as given. All residuals are lumped-mass
dual vectors (see grid module); pairing one with a test field via inner_l2
gives the weak form exactly.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ._tridiag import (Solver, _is_m_matrix, _thomas_factor, symmetric_tridiag_apply,
                       tridiag_factor)
from ._tridiag import thomas_solve  # noqa: F401 -- perfbench/tracer.py patches it by name here
from .grid import (Field, Grid, _Record, _set, _Value, dual_norm, element_gradients, h10_norm,
                   h10_values, laplacian_values)

logger = logging.getLogger("fucik_branch.quasilinear")

# Jacobian gradient regularization for 1 < p < 2, relative to mean |grad u| + 1
_EPS_REG_SCALE = 1e-8


def _check_p_gamma(p: float, gamma: float) -> None:
    """Raise ValueError unless p lies in (1,2) or (2,inf) and gamma >= 0 is finite."""
    if not (math.isfinite(p) and p > 1.0 and p != 2.0):
        raise ValueError(f"p must lie in (1,2) or (2,inf), got {p}")
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")


class ProblemParams(_Value):
    """Exponent, negative-part weight and spectral parameter.

    p = 2 is excluded: that case is the linear half-eigenvalue problem handled
    in closed form elsewhere. lam - gamma <= 0 is legal (the negative-part
    coefficient has crossed sign) and only logged.
    """

    def __init__(self, p: float, gamma: float, lam: float):
        _check_p_gamma(p, gamma)
        if not math.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam}")
        if lam - gamma <= 0.0:
            logger.debug("lambda_minus = lam - gamma = %.6g is nonpositive", lam - gamma)
        _set(self, "p", p)
        _set(self, "gamma", gamma)
        _set(self, "lam", lam)


class TransformedField(_Record):
    """Rescaled field with its current p-term coefficient ||v||_{1,2}^(4-p)."""

    def __init__(self, v: Field, coeff: float):
        _set(self, "v", v)
        _set(self, "coeff", coeff)


class Jacobian:
    """Symmetric tridiagonal operator plus an optional rank-one correction.

    The tridiagonal part collects the weighted gradient stiffness and the
    nodal zeroth-order terms; the rank-one part (a * <b, w>_2) appears only
    for the transformed problem, where the norm coefficient depends on v.
    """

    def __init__(self, grid: Grid, diag: np.ndarray, off: np.ndarray,
                 rank_one: tuple[np.ndarray, np.ndarray] | None = None):
        self.grid = grid
        self.diag = diag
        self.off = off
        self.rank_one = rank_one

    def apply_values(self, x: np.ndarray) -> np.ndarray:
        y = symmetric_tridiag_apply(self.diag, self.off, x)
        if self.rank_one is not None:
            a, b = self.rank_one
            y = y + a * (self.grid.h * float(b.dot(x)))
        return y

    def factor(self, *rhs: np.ndarray) -> tuple[Solver, list[np.ndarray]]:
        """Solver for J x = b, and J^{-1} b for each right-hand side given: one
        factorization of the symmetric tridiagonal part (off, diag), which
        also solves the right-hand sides and the rank-one a, Sherman-Morrison
        for the rank-one term; ValueError if either is singular.

        tridiag_factor picks the path by size: above 2 CORE + 1 unknowns
        cyclic reduction, which also raises on a pivot that is only
        numerically nonzero. The rank-one branch keeps the Thomas loop bit
        for bit unless its tridiagonal part is an M-matrix, as in the ball
        solves at lam <= 0: it serves the p < 2 trace, whose stalls depend on
        round-off (on cyclic reduction the p = 1.5, k = 2, gamma = 0.5,
        which = 2 trace at n = 399 ended in CorrectorFailure after 160 points
        instead of MaxSteps after 200), until ROADMAP item 10 replaces its
        corrector."""
        if self.rank_one is None:
            return tridiag_factor(self.off, self.diag, rhs)
        a, b = self.rank_one
        h = self.grid.h
        factor = tridiag_factor if _is_m_matrix(self.off, self.diag) else _thomas_factor
        tri, (t2, *ts) = factor(self.off, self.diag, (a, *rhs))
        denom = 1.0 + h * float(b.dot(t2))
        if denom == 0.0:
            raise ValueError("singular rank-one update")

        def update(t1: np.ndarray) -> np.ndarray:
            return t1 - t2 * (h * float(b.dot(t1)) / denom)

        def solve(x: np.ndarray) -> np.ndarray:
            return update(tri(x))

        return solve, [update(t1) for t1 in ts]

    def solve_values(self, rhs: np.ndarray) -> np.ndarray:
        return self.factor()[0](rhs)

    def as_matrix(self) -> np.ndarray:
        n = self.diag.size
        m = np.zeros((n, n))
        np.fill_diagonal(m, self.diag)
        idx = np.arange(n - 1)
        m[idx, idx + 1] = self.off
        m[idx + 1, idx] = self.off
        if self.rank_one is not None:
            a, b = self.rank_one
            m = m + np.outer(a, b) * self.grid.h
        return m


def _p_flux(g: np.ndarray, p: float, s: np.ndarray | None = None) -> np.ndarray:
    # sign(g)|g|^(p-1) avoids 0^(negative) for 1 < p < 2; s^((p-2)/2) g given s
    if s is None:
        return np.sign(g) * np.abs(g) ** (p - 1.0)
    return s ** (0.5 * (p - 2.0)) * g


def _p_flux_derivative(g: np.ndarray, p: float, eps: float,
                       s: np.ndarray | None) -> np.ndarray:
    # exact derivative of _p_flux; eps > 0 and s = g*g + eps*eps whenever p < 2
    if s is None:
        return (p - 1.0) * np.abs(g) ** (p - 2.0)
    return s ** (0.5 * (p - 4.0)) * ((p - 1.0) * g * g + eps * eps)


def _residual(values: np.ndarray, g: np.ndarray, h: float, params: ProblemParams,
              coeff: float) -> np.ndarray:
    """-div(coeff*|g|^{p-2}g + g) - gamma*u^- - lam*u, g the element gradients
    of values, along the last axis (one field or a block)."""
    flux = _p_flux(g, params.p)
    if coeff != 1.0:
        flux *= coeff
    flux += g
    # -np.diff(flux) / h, the minus folded into the subtraction
    return (flux[..., :-1] - flux[..., 1:]) / h \
        - params.gamma * np.maximum(-values, 0.0) - params.lam * values


def residual_original(u: Field, params: ProblemParams) -> Field:
    """Dual vector of -Delta_p u - Delta u - gamma*u^- - lam*u."""
    return Field(u.grid, _residual(u.values, element_gradients(u), u.grid.h, params, 1.0))


def residual_weak(u: Field, lambda_plus: float, lambda_minus: float,
                  p: float) -> float:
    """Dual norm of -Delta_p u - Delta u - lambda_plus*u^+ + lambda_minus*u^-."""
    if not u.values.any():
        raise ValueError("the weak residual is only defined for nonzero fields")
    g = element_gradients(u)
    flux = _p_flux(g, p) + g
    vals = -np.diff(flux) / u.grid.h \
        - lambda_plus * np.maximum(u.values, 0.0) \
        + lambda_minus * np.maximum(-u.values, 0.0)
    return dual_norm(Field(u.grid, vals))


def energy(u: Field, params: ProblemParams) -> float:
    """Discrete energy whose gradient (dual vector) is residual_original.

    The negative-part term enters with +gamma/2 ||u^-||_2^2: differentiating
    (u^-)^2 = min(u,0)^2 gives -2u^- on {u<0}, which produces the operator's
    -gamma*u^- term.
    """
    return _energy(u.values, element_gradients(u), u.grid.h, params)


def _energy(values: np.ndarray, g: np.ndarray, h: float, params: ProblemParams) -> float:
    """energy of one field's nodal values, g their element gradients."""
    e_p = h * float(np.sum(np.abs(g) ** params.p)) / params.p
    e_2 = 0.5 * h * float(np.dot(g, g))
    neg = np.maximum(-values, 0.0)
    e_gamma = 0.5 * params.gamma * h * float(np.dot(neg, neg))
    e_lam = 0.5 * params.lam * h * float(np.dot(values, values))
    return e_p + e_2 + e_gamma - e_lam


def _weighted_stiffness(grid: Grid, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h2 = grid.h * grid.h
    diag = (weights[:-1] + weights[1:]) / h2
    # w / -h2 has the bits of (-w) / h2
    return diag, weights[1:-1] / -h2


def _jacobian(values: np.ndarray, g: np.ndarray, grid: Grid, params: ProblemParams,
              transformed: bool) -> Jacobian:
    """Generalized Jacobian of residual_original at the nodal values, or if
    transformed of residual_transformed: the norm coefficient and the rank-one
    term of its derivative; g the element gradients of values.

    Gradient stiffness with elementwise weights coeff * d/dg[flux](g) + 1,
    plus the diagonal gamma*1[u_i<0] - lam: the slope of -gamma*max(-t,0) on
    t < 0 is +gamma, with zero nodes assigned to the positive part.
    """
    p, h = params.p, grid.h
    eps = 0.0 if p > 2.0 else _EPS_REG_SCALE * (float(np.abs(g).mean()) + 1.0)
    s = None if p > 2.0 else g * g + eps * eps
    nrm = math.sqrt(h * float(g.dot(g))) if transformed else 0.0
    w = _p_flux_derivative(g, p, eps, s)
    if transformed:
        w *= nrm ** (4.0 - p)
    diag, off = _weighted_stiffness(grid, w + 1.0)
    diag = diag + params.gamma * (values < 0.0) - params.lam
    if nrm == 0.0:
        return Jacobian(grid, diag, off)
    flux = _p_flux(g, p, s)
    a = (flux[:-1] - flux[1:]) / h
    b = (4.0 - p) * nrm ** (2.0 - p) * laplacian_values(values, h)
    return Jacobian(grid, diag, off, rank_one=(a, b))


def jacobian_original(u: Field, params: ProblemParams) -> Jacobian:
    """Generalized Jacobian of residual_original at u (see _jacobian)."""
    return _jacobian(u.values, element_gradients(u), u.grid, params, False)


def transform_coefficient(v: Field, p: float) -> float:
    return h10_norm(v) ** (4.0 - p)


def residual_transformed(v: Field, params: ProblemParams) -> Field:
    """Dual vector of -||v||^{4-p} Delta_p v - Delta v - gamma*v^- - lam*v (1 < p < 2)."""
    _require_singular_range(params.p)
    g = element_gradients(v)
    coeff = float(h10_values(g, v.grid.h)) ** (4.0 - params.p)
    return Field(v.grid, _residual(v.values, g, v.grid.h, params, coeff))


def jacobian_transformed(v: Field, params: ProblemParams) -> Jacobian:
    """Generalized Jacobian of residual_transformed at v.

    The norm coefficient is recomputed from v at every evaluation, so its
    derivative contributes the rank-one term
    (4-p) ||v||_{1,2}^{2-p} * (Delta_p v dual) <Laplacian v dual, .>_2.
    """
    _require_singular_range(params.p)
    return _jacobian(v.values, element_gradients(v), v.grid, params, True)


def _require_singular_range(p: float) -> None:
    if not (1.0 < p < 2.0):
        raise ValueError(f"transform is defined for 1 < p < 2, got p={p}")


def to_infinity_variable(u: Field, p: float) -> TransformedField:
    """Rescale u so the large-norm regime maps to a neighborhood of zero."""
    _require_singular_range(p)
    nrm = h10_norm(u)
    if nrm == 0.0:
        raise ValueError("zero field: the norm power in the transform is undefined")
    v = Field(u.grid, u.values / nrm ** (2.0 - 0.5 * p))
    return TransformedField(v=v, coeff=transform_coefficient(v, p))


def from_infinity_variable(v: Field, p: float) -> Field:
    """Invert to_infinity_variable: u = v * ||v||^{-(2-p/2)/(1-p/2)}."""
    _require_singular_range(p)
    nrm = h10_norm(v)
    if nrm == 0.0:
        raise ValueError("zero field: the norm power in the transform is undefined")
    scale = nrm ** (-(2.0 - 0.5 * p) / (1.0 - 0.5 * p))
    return Field(v.grid, v.values * scale)

