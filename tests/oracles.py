"""Reference implementations the tests check the package against.

No package code calls these, so they live under tests/: the linear
eigenpairs by shifted inverse iteration and by a Rayleigh-quotient search (a
cross-check of the closed form in spectrum), the positive and negative parts
of a field, the p-Laplacian dual vector written out on its own, and plain
bisection, the reference for the half-eigenvalue root finder.
"""

from __future__ import annotations

import math

import numpy as np

from fucik_branch._tridiag import symmetric_tridiag_apply, thomas_solve
from fucik_branch.grid import Field, Grid, element_gradients, laplacian_solve_values
from fucik_branch.spectrum import EigenPair, _check_index, _fix_sign, closed_form_eigenvalue


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
            w = thomas_solve(off, diag - shift, off, v)
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
