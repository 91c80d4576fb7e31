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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._tridiag import symmetric_tridiag_apply, tridiag_factor
from ._tridiag import thomas_solve  # noqa: F401 -- perfbench/tracer.py patches it by name here
from .grid import (Field, Grid, apply_laplacian, dual_norm, element_gradients,
                   gradient_values, h10_norm)

logger = logging.getLogger("fucik_branch.quasilinear")

# Jacobian gradient regularization for 1 < p < 2, relative to mean |grad u| + 1
_EPS_REG_SCALE = 1e-8


@dataclass(frozen=True)
class ProblemParams:
    """Exponent, negative-part weight and spectral parameter.

    p = 2 is excluded: that case is the linear half-eigenvalue problem handled
    in closed form elsewhere. lam - gamma <= 0 is legal (the negative-part
    coefficient has crossed sign) and only logged.
    """

    p: float
    gamma: float
    lam: float

    def __post_init__(self) -> None:
        if not (self.p > 1.0 and self.p != 2.0):
            raise ValueError(f"p must lie in (1,2) or (2,inf), got {self.p}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not (math.isfinite(self.p) and math.isfinite(self.gamma)
                and math.isfinite(self.lam)):
            raise ValueError("parameters must be finite")
        if self.lam - self.gamma <= 0.0:
            logger.debug("lambda_minus = lam - gamma = %.6g is nonpositive",
                         self.lam - self.gamma)


@dataclass(frozen=True, eq=False)
class TransformedField:
    """Rescaled field with its current p-term coefficient ||v||_{1,2}^(4-p)."""

    v: Field
    coeff: float


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
            y = y + a * (self.grid.h * float(np.dot(b, x)))
        return y

    def factor(self) -> Callable[[np.ndarray], np.ndarray]:
        """Solver for J x = rhs: one tridiagonal factorization, Sherman-Morrison
        for the rank-one term; ValueError if either is singular."""
        tri = tridiag_factor(self.off, self.diag, self.off)
        if self.rank_one is None:
            return tri
        a, b = self.rank_one
        h = self.grid.h
        t2 = tri(a)
        denom = 1.0 + h * float(np.dot(b, t2))
        if denom == 0.0:
            raise ValueError("singular rank-one update")

        def solve(rhs: np.ndarray) -> np.ndarray:
            t1 = tri(rhs)
            return t1 - t2 * (h * float(np.dot(b, t1)) / denom)

        return solve

    def solve_values(self, rhs: np.ndarray) -> np.ndarray:
        return self.factor()(rhs)

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


def _p_flux(g: np.ndarray, p: float, eps: float = 0.0) -> np.ndarray:
    # sign(g)|g|^(p-1) at eps = 0 avoids 0^(negative) for 1 < p < 2
    if eps == 0.0:
        return np.sign(g) * np.abs(g) ** (p - 1.0)
    return (g * g + eps * eps) ** (0.5 * (p - 2.0)) * g


def _p_flux_derivative(g: np.ndarray, p: float, eps: float) -> np.ndarray:
    # exact derivative of _p_flux; eps > 0 whenever p < 2 (see _jacobian)
    if eps == 0.0:
        return (p - 1.0) * np.abs(g) ** (p - 2.0)
    return (g * g + eps * eps) ** (0.5 * (p - 4.0)) * ((p - 1.0) * g * g + eps * eps)


def residual_original_values(values: np.ndarray, h: float, params: ProblemParams,
                             coeff: float = 1.0) -> np.ndarray:
    """-div(coeff*|g|^{p-2}g + g) - gamma*u^- - lam*u along the last axis
    (one field or a block); residual_original at the default coeff = 1."""
    g = gradient_values(values, h)
    flux = coeff * _p_flux(g, params.p) + g
    return -np.diff(flux, axis=-1) / h \
        - params.gamma * np.maximum(-values, 0.0) \
        - params.lam * values


def residual_original(u: Field, params: ProblemParams) -> Field:
    """Dual vector of -Delta_p u - Delta u - gamma*u^- - lam*u."""
    return Field(u.grid, residual_original_values(u.values, u.grid.h, params))


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
    h = u.grid.h
    g = element_gradients(u)
    e_p = h * float(np.sum(np.abs(g) ** params.p)) / params.p
    e_2 = 0.5 * h * float(np.dot(g, g))
    neg = np.maximum(-u.values, 0.0)
    e_gamma = 0.5 * params.gamma * h * float(np.dot(neg, neg))
    e_lam = 0.5 * params.lam * h * float(np.dot(u.values, u.values))
    return e_p + e_2 + e_gamma - e_lam


def _weighted_stiffness(grid: Grid, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h2 = grid.h * grid.h
    diag = (weights[:-1] + weights[1:]) / h2
    off = -weights[1:-1] / h2
    return diag, off


def _jacobian(u: Field, params: ProblemParams, transformed: bool) -> Jacobian:
    """Generalized Jacobian of residual_original_values at u: coeff 1, or if
    transformed the norm coefficient and the rank-one term of its derivative.

    Gradient stiffness with elementwise weights coeff * d/dg[flux](g) + 1,
    plus the diagonal gamma*1[u_i<0] - lam: the slope of -gamma*max(-t,0) on
    t < 0 is +gamma, with zero nodes assigned to the positive part.
    """
    p = params.p
    g = element_gradients(u)
    eps = 0.0 if p > 2.0 else _EPS_REG_SCALE * (float(np.mean(np.abs(g))) + 1.0)
    coeff = transform_coefficient(u, p) if transformed else 1.0
    w = coeff * _p_flux_derivative(g, p, eps) + 1.0
    diag, off = _weighted_stiffness(u.grid, w)
    diag = diag + params.gamma * (u.values < 0.0) - params.lam
    nrm = h10_norm(u) if transformed else 0.0
    if nrm == 0.0:
        return Jacobian(u.grid, diag, off)
    a = -np.diff(_p_flux(g, p, eps)) / u.grid.h
    b = (4.0 - p) * nrm ** (2.0 - p) * apply_laplacian(u).values
    return Jacobian(u.grid, diag, off, rank_one=(a, b))


def jacobian_original(u: Field, params: ProblemParams) -> Jacobian:
    """Generalized Jacobian of residual_original at u (see _jacobian)."""
    return _jacobian(u, params, transformed=False)


def transform_coefficient(v: Field, p: float) -> float:
    return h10_norm(v) ** (4.0 - p)


def residual_transformed(v: Field, params: ProblemParams) -> Field:
    """Dual vector of -||v||^{4-p} Delta_p v - Delta v - gamma*v^- - lam*v (1 < p < 2)."""
    _require_singular_range(params.p)
    coeff = transform_coefficient(v, params.p)
    return Field(v.grid, residual_original_values(v.values, v.grid.h, params, coeff))


def jacobian_transformed(v: Field, params: ProblemParams) -> Jacobian:
    """Generalized Jacobian of residual_transformed at v.

    The norm coefficient is recomputed from v at every evaluation, so its
    derivative contributes the rank-one term
    (4-p) ||v||_{1,2}^{2-p} * (Delta_p v dual) <Laplacian v dual, .>_2.
    """
    _require_singular_range(params.p)
    return _jacobian(v, params, transformed=True)


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


def original_h10_norm(v: Field, p: float) -> float:
    """Back-transformed ||u||_{1,2} of the field represented by v."""
    _require_singular_range(p)
    nrm = h10_norm(v)
    if nrm == 0.0:
        raise ValueError("zero field has no back-transformed norm")
    return nrm ** (-1.0 / (1.0 - 0.5 * p))
