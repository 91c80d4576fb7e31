"""Half-eigenpairs of -u'' - gamma*u^- = lambda*u and the interval Fucik curves.

The jumping-nonlinearity identity lambda*u^+ - (lambda-gamma)*u^- =
lambda*u + gamma*u^- makes the half-eigenvalue problem a point on the Fucik
spectrum with lambda_plus = lambda and lambda_minus = lambda - gamma. On an
interval, Fucik solutions are chains of alternating half-period sine arcs,
so a chain of n_plus positive and n_minus negative humps fills (0, L) exactly
when n_plus*pi/sqrt(lambda_plus) + n_minus*pi/sqrt(lambda_minus) = L with
|n_plus - n_minus| <= 1. The Fucik curves are this relation solved for
lambda_minus, and a continuum half-eigenvalue is the root of one strictly
decreasing scalar function.

The discrete eigenpairs come from the same idea one level down: each row of
(A + gamma*diag(1[u < 0]) - lambda) u = 0 is a three-term recurrence, shot
from u_0 = 0 and bisected in lambda until its end value u_{n+1} vanishes.
The bisection carries only the last two values of the recurrence; the
eigenvector is shot once, at the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tridiag import thomas_solve  # noqa: F401 -- perfbench/tracer.py patches it by name here
from .grid import Field, Grid, apply_laplacian, dual_norm
from .monotone import SolverError
from .spectrum import closed_form_eigenvalue, eigenpair

_RESIDUAL_TOL = 1e-8
_DRIFT_CONST = 0.25  # |lambda_h - lambda| <= _DRIFT_CONST * h^2 * lambda^2 (P1: 1/12)


@dataclass(frozen=True)
class GammaWindow:
    """Admissible range 0 <= gamma < gamma_max for splitting the k-th eigenvalue."""

    k: int
    gamma_max: float


@dataclass(frozen=True, eq=False)
class SplitEigenPair:
    """Both half-eigenvalues split off lambda_k, with eigenfunctions and cone margin.

    v1 and v2 are L2-normalized; (e_k, v1) > 0 and (e_k, v2) < 0 by
    construction, and eta = min(|(e_k, v1)|, |(e_k, v2)|) / 2.
    """

    k: int
    gamma: float
    lambda1: float
    lambda2: float
    v1: Field
    v2: Field
    eta: float


@dataclass(frozen=True)
class FucikPoint:
    """Sampled point of the Fucik spectrum with its hump counts."""

    lambda_plus: float
    lambda_minus: float
    n_plus: int
    n_minus: int

    def __post_init__(self) -> None:
        if not (self.lambda_plus > 0.0 and self.lambda_minus > 0.0):
            raise ValueError("Fucik point requires positive lambda_plus and lambda_minus")
        if abs(self.n_plus - self.n_minus) > 1:
            raise ValueError("alternating humps can differ in count by at most 1")


def _check_length(length: float) -> None:
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"interval length must be positive and finite, got {length}")


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f in [lo, hi] to adjacent doubles; f > 0 left of it, f <= 0 right."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def gamma_window(grid: Grid, k: int) -> GammaWindow:
    """Largest gamma below which both split values stay inside (lambda_k, lambda_{k+1})."""
    if not (isinstance(k, int) and k >= 2):
        raise ValueError(f"splitting needs k >= 2, got {k}")
    if k + 1 > grid.n_interior:
        raise ValueError(f"k={k} needs at least {k + 1} interior nodes")
    lam_prev = closed_form_eigenvalue(grid, k - 1)
    lam_k = closed_form_eigenvalue(grid, k)
    lam_next = closed_form_eigenvalue(grid, k + 1)
    return GammaWindow(k=k, gamma_max=min(lam_k - lam_prev, lam_next - lam_k))


def _shoot(lambda_plus: float, lambda_minus: float,
           length: float) -> tuple[float, int, int]:
    """Endpoint value and hump counts of the arc chain started with u'(0) = 1.

    Marches hump by hump instead of using the closed form, so it serves as an
    independent check of the Fucik relation.
    """
    if not (0.0 < lambda_plus < math.inf and 0.0 < lambda_minus < math.inf):
        raise ValueError("shooting requires positive, finite lambda_plus and lambda_minus")
    _check_length(length)
    eps_len = 1e-12 * length  # humps shorter than this are unresolvable
    x = 0.0
    sign = 1.0
    n_plus = 0
    n_minus = 0
    while True:
        lam = lambda_plus if sign > 0 else lambda_minus
        width = math.pi / math.sqrt(lam)
        if x + width <= length - eps_len:
            if sign > 0:
                n_plus += 1
            else:
                n_minus += 1
            x += width
            sign = -sign
            continue
        rem = length - x
        if rem > eps_len:
            if sign > 0:
                n_plus += 1
            else:
                n_minus += 1
        u_end = sign * math.sin(math.sqrt(lam) * rem) / math.sqrt(lam)
        return u_end, n_plus, n_minus


def shoot_split_lambda(k: int, gamma: float, length: float, which: int) -> float:
    """Continuum half-eigenvalue of the k-th split, from the Fucik relation.

    The k-hump chain starts with a positive hump on branch 1 and a negative
    one on branch 2, and lambda solves
    n_plus*pi/sqrt(lambda) + n_minus*pi/sqrt(lambda - gamma) = L, whose left
    side decreases strictly in lambda, on [lambda_k, lambda_{k+1}].
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be an integer >= 1, got {k}")
    if not gamma >= 0.0:
        raise ValueError("gamma must be nonnegative")
    _check_length(length)
    lo = (k * math.pi / length) ** 2
    hi = ((k + 1) * math.pi / length) ** 2
    if gamma == 0.0:
        return lo
    if gamma >= lo - ((k - 1) * math.pi / length) ** 2 or gamma >= hi - lo:
        raise ValueError("gamma outside the admissible window")
    n_plus, n_minus = (k + 1) // 2, k // 2
    if which == 2:
        n_plus, n_minus = n_minus, n_plus

    def excess(lam: float) -> float:
        return (n_plus * math.pi / math.sqrt(lam)
                + n_minus * math.pi / math.sqrt(lam - gamma) - length)

    return _bisect(excess, lo, hi)


def _multipliers(grid: Grid, gamma: float, lam: float) -> tuple[float, float]:
    """Multipliers of u_i in the shooting recurrence where u_i >= 0 and where u_i < 0."""
    c_pos = 2.0 - grid.h ** 2 * lam
    return c_pos, c_pos + grid.h ** 2 * gamma


def _end_value(grid: Grid, gamma: float, u1: float, lam: float) -> float:
    """End value u_{n+1}(lam) of the shot from u_0 = 0, u_1 = u1; keeps two floats."""
    c_pos, c_neg = _multipliers(grid, gamma, lam)
    prev, cur = 0.0, u1
    for _ in range(grid.n_interior):
        prev, cur = cur, (c_neg if cur < 0.0 else c_pos) * cur - prev
    return cur


def _shot_values(grid: Grid, gamma: float, u1: float, lam: float) -> np.ndarray:
    """Interior values u_1 .. u_n of the same shot."""
    c_pos, c_neg = _multipliers(grid, gamma, lam)
    u = [0.0, u1]
    for _ in range(grid.n_interior - 1):
        cur = u[-1]
        u.append((c_neg if cur < 0.0 else c_pos) * cur - u[-2])
    return np.array(u[1:])


def _discrete_half_eigen(grid: Grid, gamma: float, which: int, lam_lo: float,
                         lam_hi: float) -> tuple[float, np.ndarray]:
    """Eigenpair of the full discretization in the window [lam_lo, lam_hi].

    Shoots u_0 = 0, u_1 = +h (which=1) or -h (which=2),
    u_{i+1} = (2 - h^2*lambda + h^2*gamma*1[u_i < 0])*u_i - u_{i-1}, so that
    rows 1..n-1 of (A + gamma*diag(1[u < 0]) - lambda) u = 0 hold for every
    lambda and row n holds when u_{n+1}(lambda) = 0. That end value is
    continuous in lambda (the gamma term vanishes as u_i -> 0) and changes
    sign across the window, where it is bisected. The bisection evaluates
    only u_{n+1}; the vector is shot once, at the root. Zero nodes belong to
    the positive part. Returns lambda and the L2-normalized shot.
    """
    u1 = grid.h if which == 1 else -grid.h
    side = math.copysign(1.0, _end_value(grid, gamma, u1, lam_lo))
    lam = _bisect(lambda x: side * _end_value(grid, gamma, u1, x), lam_lo, lam_hi)
    vec = _shot_values(grid, gamma, u1, lam)
    return lam, vec / math.sqrt(grid.h * float(np.dot(vec, vec)))


def split_eigenvalues(grid: Grid, k: int, gamma: float) -> SplitEigenPair:
    """Both half-eigenvalues of the discretized problem split off lambda_k.

    gamma = 0 degenerates to the linear eigenpair on both branches. For
    gamma > 0 each branch is shot on the discrete window and checked against
    the window, the continuum value (within 0.25*h^2*lambda^2, four times the
    leading P1 error constant 1/12), a 1e-8 residual and its orientation; a
    failed check raises SolverError.
    """
    if not gamma >= 0.0:
        raise ValueError("gamma must be nonnegative")
    ek = eigenpair(grid, k)
    if k == 1:
        # The window construction needs a spectral gap on both sides; for the
        # principal eigenvalue only the unsplit case is defined.
        if gamma != 0.0:
            raise ValueError("k = 1 admits only gamma = 0")
        return SplitEigenPair(k=1, gamma=0.0, lambda1=ek.value, lambda2=ek.value,
                              v1=ek.vector, v2=-ek.vector, eta=0.5)
    window = gamma_window(grid, k)
    if gamma >= window.gamma_max:
        raise ValueError(
            f"gamma={gamma} outside [0, {window.gamma_max:.6g}) for k={k}")
    if gamma == 0.0:
        return SplitEigenPair(k=k, gamma=0.0, lambda1=ek.value, lambda2=ek.value,
                              v1=ek.vector, v2=-ek.vector, eta=0.5)

    lam_lo = closed_form_eigenvalue(grid, k)
    lam_hi = closed_form_eigenvalue(grid, k + 1)
    results = []
    for which, sign in ((1, +1.0), (2, -1.0)):
        lam_shoot = shoot_split_lambda(k, gamma, grid.length, which)
        lam, vec = _discrete_half_eigen(grid, gamma, which, lam_lo, lam_hi)
        if not (lam_lo - 1e-9 <= lam <= lam_hi + 1e-9):
            raise SolverError(
                f"discrete half-eigenvalue {lam:.12g} left the window "
                f"[{lam_lo:.12g}, {lam_hi:.12g}]")
        if abs(lam - lam_shoot) > _DRIFT_CONST * grid.h ** 2 * lam_shoot ** 2:
            raise SolverError("discrete half-eigenvalue drifted from the continuum root")
        field = Field(grid, vec)
        res = half_eigen_residual(field, lam, gamma)
        if res > _RESIDUAL_TOL:
            raise SolverError(f"half-eigen residual {res:.3e} exceeds {_RESIDUAL_TOL}")
        proj = grid.h * float(np.dot(ek.vector.values, vec))
        if sign * proj <= 0.0:
            raise SolverError("discrete eigenfunction lost its branch orientation")
        results.append((lam, field, proj))

    (lam1, v1, p1), (lam2, v2, p2) = results
    eta = 0.5 * min(abs(p1), abs(p2))
    if eta <= 0.0:
        raise SolverError("cone margin collapsed to zero")
    return SplitEigenPair(k=k, gamma=gamma, lambda1=lam1, lambda2=lam2,
                          v1=v1, v2=v2, eta=eta)


def half_eigen_residual(u: Field, lam: float, gamma: float) -> float:
    """Dual norm of -u'' - gamma*u^- - lambda*u over the discrete test space."""
    if not u.values.any():
        raise ValueError("residual is only defined for nonzero fields")
    r = apply_laplacian(u).values - gamma * np.maximum(-u.values, 0.0) \
        - lam * u.values
    return dual_norm(Field(u.grid, r))


def fucik_curve_points(length: float, lambda_max: float,
                       n_samples: int) -> list[FucikPoint]:
    """Sample the Fucik curves on [lambda_1, lambda_max]^2 from their closed form.

    For each lambda_plus on the sample grid, each hump count pair with
    n_minus >= 1 and rem = L - n_plus*pi/sqrt(lambda_plus) > 0 gives
    lambda_minus = (n_minus*pi/rem)^2; rows inside the range are emitted in
    increasing lambda_minus. The range starts at lambda_1*(1 + 1e-9), just
    above the curves lambda_plus = lambda_1 and lambda_minus = lambda_1.
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
