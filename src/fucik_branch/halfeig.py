"""Half-eigenpairs of -u'' - gamma*u^- = lambda*u and the interval Fucik curves.

The jumping-nonlinearity identity lambda*u^+ - (lambda-gamma)*u^- =
lambda*u + gamma*u^- makes the half-eigenvalue problem a point on the Fucik
spectrum with lambda_plus = lambda and lambda_minus = lambda - gamma. On an
interval, Fucik solutions are chains of alternating half-period sine arcs,
so a chain of n_plus positive and n_minus negative humps fills (0, L) exactly
when n_plus*pi/sqrt(lambda_plus) + n_minus*pi/sqrt(lambda_minus) = L with
|n_plus - n_minus| <= 1. The Fucik curves are this relation solved for
lambda_minus, and a continuum half-eigenvalue is the root of one strictly
decreasing scalar function. The curve sweep evaluates that closed form at
once over every sample and hump count pair, as numpy arrays, and returns the
rows as the four columns of a FucikCurves; each value is the double the
scalar formula gives, so the rows are those of a loop over the samples.

The discrete eigenpairs come from the same idea one level down: each row of
(A + gamma*diag(1[u < 0]) - lambda) u = 0 is a three-term recurrence, shot
from u_0 = 0, and lambda is the root of its end value u_{n+1}. The root is
searched only inside the drift bracket around the continuum value, by
regula falsi with the Illinois rule, down to the same pair of adjacent
doubles bisection would reach, so the result is the bisection result. The
search carries only the last two values of the recurrence; the eigenvector
is shot once, at the root. The end value depends on lambda only through the
recurrence's two multipliers, 2 - h^2*lambda and that plus h^2*gamma, and
near the root thousands of neighbouring doubles round to the same pair
(4000 to 16000 for k = 2..5 at n = 799). Each search keeps the end value of
every pair it has shot and shoots a pair once; a repeated pair returns the
double a new shot would give, so the trial points, and the root, are those
of the search without the cache.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._tridiag import thomas_solve  # noqa: F401 -- perfbench/tracer.py patches it by name here
from .grid import Field, Grid, apply_laplacian, dual_norm
from .monotone import SolverError
from .spectrum import closed_form_eigenvalue, eigenpair

_RESIDUAL_TOL = 1e-8
_DRIFT_CONST = 0.25  # |lambda_h - lambda| <= _DRIFT_CONST * h^2 * lambda^2 (P1: 1/12)


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


@dataclass(frozen=True, eq=False)
class FucikCurves:
    """Rows of a Fucik sweep as four aligned columns.

    The constructor applies FucikPoint's two rules to every row at once,
    with the same messages. len() counts rows, and iterating yields one
    FucikPoint per row, with Python floats and ints.
    """

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    n_plus: np.ndarray
    n_minus: np.ndarray

    def __post_init__(self) -> None:
        columns = (self.lambda_plus, self.lambda_minus, self.n_plus, self.n_minus)
        if not all(c.ndim == 1 and c.shape == self.lambda_plus.shape for c in columns):
            raise ValueError("Fucik columns must be 1-D and of equal length")
        if not ((self.lambda_plus > 0.0).all() and (self.lambda_minus > 0.0).all()):
            raise ValueError("Fucik point requires positive lambda_plus and lambda_minus")
        if (abs(self.n_plus - self.n_minus) > 1).any():
            raise ValueError("alternating humps can differ in count by at most 1")

    def __len__(self) -> int:
        return self.lambda_plus.size

    def __iter__(self) -> Iterator[FucikPoint]:
        columns = (self.lambda_plus, self.lambda_minus, self.n_plus, self.n_minus)
        return (FucikPoint(*row) for row in zip(*(c.tolist() for c in columns)))


def _check_length(length: float) -> None:
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"interval length must be positive and finite, got {length}")
    # the callers square pi/length, and a float ** that overflows raises
    # OverflowError; below the largest double, ** has an ulp to spare
    if not (math.pi / length) * (math.pi / length) < np.finfo(float).max:
        raise ValueError(f"interval length {length} is too small: (pi/length)^2 overflows")


def _bisect(f, lo: float, hi: float, *, f_lo: float = math.nan,
            f_hi: float = math.nan) -> float:
    """Root of f in [lo, hi] to adjacent doubles; f > 0 left of it, f <= 0 right.

    f_lo and f_hi are f(lo) and f(hi) when the caller already has them (NaN
    when not); the ends are never evaluated here. Each trial point is the
    regula-falsi point of the bracket with the Illinois rule (Dowell and
    Jarratt, BIT 11, 1971): when the same end is replaced twice running, the
    value kept at the other end is halved. The midpoint stands in while the
    end values do not bracket a sign change, an unknown one included, and
    when the secant point is not strictly inside (lo, hi). As in bisection,
    the loop stops on the two adjacent doubles where the computed sign of f
    flips and returns their midpoint. When the sign flips once in [lo, hi],
    every sequence of trial points strictly inside the bracket ends on the
    pair bisection ends on, so the result is the double bisection returns.
    """
    last = 0  # +1 when lo was replaced on the previous step, -1 for hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        den = f_lo - f_hi
        x = lo + (hi - lo) * (f_lo / den) if den > 0.0 else mid
        if not lo < x < hi:
            x = mid
        if (fx := f(x)) > 0.0:
            lo, f_lo = x, fx
            if last == 1:
                f_hi *= 0.5
            last = 1
        else:
            hi, f_hi = x, fx
            if last == -1:
                f_lo *= 0.5
            last = -1
    return mid


def gamma_window(grid: Grid, k: int) -> float:
    """The float gamma_max: the k-th eigenvalue splits for 0 <= gamma < gamma_max,
    and there both split values stay inside (lambda_k, lambda_{k+1})."""
    if not (isinstance(k, int) and k >= 2):
        raise ValueError(f"splitting needs k >= 2, got {k}")
    if k + 1 > grid.n_interior:
        raise ValueError(f"k={k} needs at least {k + 1} interior nodes")
    lam_prev = closed_form_eigenvalue(grid, k - 1)
    lam_k = closed_form_eigenvalue(grid, k)
    lam_next = closed_form_eigenvalue(grid, k + 1)
    return min(lam_k - lam_prev, lam_next - lam_k)


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
    """Eigenpair of the full discretization in the bracket [lam_lo, lam_hi].

    Shoots u_0 = 0, u_1 = +h (which=1) or -h (which=2),
    u_{i+1} = (2 - h^2*lambda + h^2*gamma*1[u_i < 0])*u_i - u_{i-1}, so that
    rows 1..n-1 of (A + gamma*diag(1[u < 0]) - lambda) u = 0 hold for every
    lambda and row n holds when u_{n+1}(lambda) = 0. That end value is
    continuous in lambda (the gamma term vanishes as u_i -> 0).
    split_eigenvalues passes the drift bracket around the continuum root, so
    an end value of one sign at both ends raises SolverError; otherwise the
    two end values start _bisect, which closes the bracket on the sign
    change. The search evaluates only u_{n+1}, through a dict keyed by the
    pair _multipliers returns: _end_value reads lambda only through that
    pair, so a trial whose pair was shot before takes the stored double and
    the search sees the values of a shot at every trial. The dict lives for
    this call only. The vector is shot once, at the root. Zero nodes belong
    to the positive part. Returns lambda and the L2-normalized shot.
    """
    u1 = grid.h if which == 1 else -grid.h
    shots: dict[tuple[float, float], float] = {}

    def end_value(lam: float) -> float:
        key = _multipliers(grid, gamma, lam)
        if (value := shots.get(key)) is None:
            value = shots[key] = _end_value(grid, gamma, u1, lam)
        return value

    end_lo = end_value(lam_lo)
    side = math.copysign(1.0, end_lo)
    if (f_hi := side * end_value(lam_hi)) > 0.0:
        raise SolverError("discrete half-eigenvalue drifted from the continuum root")
    lam = _bisect(lambda x: side * end_value(x), lam_lo, lam_hi,
                  f_lo=side * end_lo, f_hi=f_hi)
    vec = _shot_values(grid, gamma, u1, lam)
    return lam, vec / math.sqrt(grid.h * float(np.dot(vec, vec)))


def check_split(grid: Grid, k: int, gamma: float) -> None:
    """Raise ValueError unless split_eigenvalues(grid, k, gamma) is defined:
    k = 1 with gamma = 0, or 2 <= k <= n_interior - 1 with
    0 <= gamma < gamma_window(grid, k). Closed forms only."""
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k}")
    if k == 1:
        # The window construction needs a spectral gap on both sides; for the
        # principal eigenvalue only the unsplit case is defined.
        if gamma != 0.0:
            raise ValueError("k = 1 admits only gamma = 0")
        return
    gamma_max = gamma_window(grid, k)
    if gamma >= gamma_max:
        raise ValueError(f"gamma={gamma} outside [0, {gamma_max:.6g}) for k={k}")


def split_eigenvalues(grid: Grid, k: int, gamma: float) -> SplitEigenPair:
    """Both half-eigenvalues of the discretized problem split off lambda_k.

    gamma = 0 degenerates to the linear eigenpair on both branches. For
    gamma > 0 each branch is searched in the drift bracket: the continuum
    value plus or minus 0.25*h^2*lambda^2 (four times the leading P1 error
    constant 1/12), clipped to the window [lambda_k, lambda_{k+1}]. No sign
    change of the end value in that bracket, a residual above 1e-8 or a lost
    orientation raises SolverError.
    """
    check_split(grid, k, gamma)
    ek = eigenpair(grid, k)
    if gamma == 0.0:
        return SplitEigenPair(k=k, gamma=0.0, lambda1=ek.value, lambda2=ek.value,
                              v1=ek.vector, v2=-ek.vector, eta=0.5)

    lam_lo = closed_form_eigenvalue(grid, k)
    lam_hi = closed_form_eigenvalue(grid, k + 1)
    results = []
    for which, sign in ((1, +1.0), (2, -1.0)):
        lam_shoot = shoot_split_lambda(k, gamma, grid.length, which)
        drift = _DRIFT_CONST * grid.h ** 2 * lam_shoot ** 2
        lam, vec = _discrete_half_eigen(grid, gamma, which,
                                        max(lam_lo, lam_shoot - drift),
                                        min(lam_hi, lam_shoot + drift))
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
                       n_samples: int) -> FucikCurves:
    """Sample the Fucik curves on [lambda_1, lambda_max]^2 from their closed form.

    For each lambda_plus on the sample grid, each hump count pair with
    n_minus in {n_plus - 1, n_plus, n_plus + 1}, n_minus >= 1 and
    rem = L - n_plus*pi/sqrt(lambda_plus) > 0 gives
    lambda_minus = (n_minus*pi/rem)^2; rows inside the range are kept, in
    increasing lambda_minus within each sample. When two pairs of a sample
    give the same lambda_minus, the one with fewer positive humps (then
    fewer negative humps) labels the row. The range starts at
    lambda_1*(1 + 1e-9), just above the curves lambda_plus = lambda_1 and
    lambda_minus = lambda_1.

    The whole grid sample x n_plus x n_minus is evaluated as arrays, each
    operation in the order of the scalar formula, so every value is the
    double the scalar formula gives. The square must stay
    np.float_power(x, 2.0): it rounds as Python's x ** 2 (libm pow) does,
    while x * x and np.power(x, 2) can differ from it by one ulp. For
    x = 2.1367541098445986, x ** 2 is 4.565718125937782 and x * x is
    4.565718125937783, and such an ulp moves bytes of the fucik table.
    """
    _check_length(length)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    lam1 = (math.pi / length) ** 2
    if not (math.isfinite(lambda_max) and lambda_max > lam1):
        raise ValueError("lambda_max must be finite and exceed the principal eigenvalue")
    lam_lo = lam1 * (1.0 + 1e-9)
    lam_plus = np.linspace(lam_lo, lambda_max, n_samples)
    # rem falls with n_plus, so rem > 0 keeps the counts a scalar loop visits
    n_top = int(length * math.sqrt(lambda_max) / math.pi) + 2
    rem = length - np.arange(n_top) * math.pi / np.sqrt(lam_plus)[:, None]
    sample, n_plus = np.nonzero(rem > 0.0)
    n_minus = n_plus[:, None] + np.array([-1, 0, 1])
    lam_minus = np.float_power(n_minus * math.pi / rem[sample, n_plus][:, None], 2.0)
    keep = ((n_minus >= 1) & (lam_lo <= lam_minus) & (lam_minus <= lambda_max)).ravel()
    sample = np.repeat(sample, 3)[keep]
    n_plus = np.repeat(n_plus, 3)[keep]
    n_minus, lam_minus = n_minus.ravel()[keep], lam_minus.ravel()[keep]
    # a stable sort keeps equal lambda_minus in generation order; keep the first
    order = np.lexsort((lam_minus, sample))
    sample, lam_minus = sample[order], lam_minus[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (sample[1:] != sample[:-1]) | (lam_minus[1:] != lam_minus[:-1])
    order = order[first]
    return FucikCurves(lam_plus[sample[first]], lam_minus[first],
                       n_plus[order], n_minus[order])
