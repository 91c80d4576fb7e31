"""Reference computations the benchmark checks the program against.

Nothing here imports fucik_branch: each formula is written out again from the
discretization it describes (uniform P1 elements on (0, L), lumped L2
pairing, homogeneous Dirichlet values) or from the continuum closed forms, so
that an error in the program cannot hide in its own check. `self_check`
tests every oracle against a value known independently of it.
"""

from __future__ import annotations

import math

import numpy as np


def mesh_width(length: float, n: int) -> float:
    return length / (n + 1)


def nodes(length: float, n: int) -> np.ndarray:
    return mesh_width(length, n) * np.arange(1, n + 1)


def gradients(u: np.ndarray, h: float) -> np.ndarray:
    """Constant gradient on each of the n+1 elements; boundary values are 0."""
    return np.diff(np.concatenate(([0.0], u, [0.0]))) / h


def h10(u: np.ndarray, h: float) -> float:
    g = gradients(u, h)
    return math.sqrt(h * float(g @ g))


def l2(u: np.ndarray, h: float) -> float:
    return math.sqrt(h * float(u @ u))


def residual(u: np.ndarray, h: float, p: float, gamma: float, lam: float,
             coeff: float = 1.0) -> np.ndarray:
    """Lumped dual vector of -coeff*Delta_p u - Delta u - gamma*u^- - lam*u.

    The element flux is coeff*|g|^(p-2)*g + g, written with sign() so that a
    vanishing gradient contributes 0 for every p > 1.
    """
    g = gradients(u, h)
    flux = coeff * np.sign(g) * np.abs(g) ** (p - 1.0) + g
    return -np.diff(flux) / h - gamma * np.maximum(-u, 0.0) - lam * u


def half_eigen_residual(u: np.ndarray, h: float, gamma: float,
                        lam: float) -> np.ndarray:
    """Lumped dual vector of -u'' - gamma*u^- - lam*u."""
    return apply_laplacian(u, h) - gamma * np.maximum(-u, 0.0) - lam * u


def rescaled_coeff(v: np.ndarray, h: float, p: float) -> float:
    """p-term coefficient ||v||_{1,2}^(4-p) of the rescaled (1 < p < 2) equation."""
    return h10(v, h) ** (4.0 - p)


def traced_residual(u: np.ndarray, h: float, p: float, gamma: float,
                    lam: float) -> np.ndarray:
    """Residual of the variable a branch trace follows: u for p > 2, v for p < 2."""
    coeff = rescaled_coeff(u, h, p) if p < 2.0 else 1.0
    return residual(u, h, p, gamma, lam, coeff)


def laplacian_inverse(r: np.ndarray, h: float) -> np.ndarray:
    """Solve the lumped Dirichlet Laplacian (2z_i - z_{i-1} - z_{i+1})/h^2 = r_i.

    Uses the discrete Green's function G_ij = h^2 * i*(N-j)/N for i <= j,
    N = n+1, summed in O(n) with two cumulative sums, so it shares no code
    or algorithm with a tridiagonal elimination.
    """
    n = r.size
    big_n = n + 1
    i = np.arange(1, n + 1, dtype=float)
    left = np.cumsum(i * r)                       # sum_{j<=i} j r_j
    right_all = np.cumsum(((big_n - i) * r)[::-1])[::-1]
    right = np.concatenate((right_all[1:], [0.0]))  # sum_{j>i} (N-j) r_j
    return h * h * ((big_n - i) * left + i * right) / big_n


def apply_laplacian(z: np.ndarray, h: float) -> np.ndarray:
    out = 2.0 * z
    out[:-1] -= z[1:]
    out[1:] -= z[:-1]
    return out / (h * h)


def dual_norm(r: np.ndarray, h: float) -> float:
    """sup over discrete test fields w of <r, w> / ||w||_{1,2}."""
    z = laplacian_inverse(r, h)
    return math.sqrt(max(h * float(r @ z), 0.0))


def discrete_eigenvalue(length: float, n: int, k: int) -> float:
    """k-th eigenvalue of the lumped P1 Dirichlet Laplacian, (2/h^2)(1 - cos(k pi h/L))."""
    h = mesh_width(length, n)
    return 2.0 / (h * h) * (1.0 - math.cos(k * math.pi * h / length))


def discrete_eigenvector(length: float, n: int, k: int) -> np.ndarray:
    """L2-normalized sine samples, first nonzero value positive."""
    h = mesh_width(length, n)
    e = np.sin(k * math.pi * nodes(length, n) / length)
    return e / l2(e, h)


def gamma_max(length: float, n: int, k: int) -> float:
    """Largest gamma keeping the split pair of mode k inside (lambda_k, lambda_{k+1})."""
    lam = [discrete_eigenvalue(length, n, j) for j in (k - 1, k, k + 1)]
    return min(lam[1] - lam[0], lam[2] - lam[1])


def hump_counts(k: int, which: int) -> tuple[int, int]:
    """(positive, negative) hump counts of the k-hump chain starting up (which=1) or down."""
    up, down = (k + 1) // 2, k // 2
    return (up, down) if which == 1 else (down, up)


def continuum_half_eigenvalue(k: int, gamma: float, length: float,
                              which: int) -> float:
    """Root lam of n_plus*pi/sqrt(lam) + n_minus*pi/sqrt(lam - gamma) = L, by bisection."""
    n_plus, n_minus = hump_counts(k, which)

    def excess(lam: float) -> float:
        return n_plus * math.pi / math.sqrt(lam) \
            + n_minus * math.pi / math.sqrt(lam - gamma) - length

    # excess(lo) > 0: the hump term whose lambda sits nearest its pole alone spans 2L
    if n_minus:
        lo = gamma + 0.25 * (n_minus * math.pi / length) ** 2
    else:
        lo = 0.25 * (n_plus * math.pi / length) ** 2
    hi = ((k * math.pi / length) ** 2 + gamma) * 2.0
    while excess(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * math.ulp(hi):
            break
    return 0.5 * (lo + hi)


def fucik_excess(lambda_plus: float, lambda_minus: float, n_plus: int,
                 n_minus: int, length: float) -> float:
    """n_plus*pi/sqrt(lambda_plus) + n_minus*pi/sqrt(lambda_minus) - L."""
    return n_plus * math.pi / math.sqrt(lambda_plus) \
        + n_minus * math.pi / math.sqrt(lambda_minus) - length


def fucik_row_ok(lambda_plus: float, lambda_minus: float, n_plus: int,
                 n_minus: int, length: float) -> bool:
    """A labelled Fucik point satisfies the closed-form relation for its hump counts."""
    if abs(n_plus - n_minus) > 1 or n_plus < 0 or n_minus < 0:
        return False
    return abs(fucik_excess(lambda_plus, lambda_minus, n_plus, n_minus,
                            length)) <= 1e-9 * length


def fucik_roots(lambda_plus: float, lo: float, hi: float,
                length: float) -> list[float]:
    """Every lambda_minus in [lo, hi] on a Fucik curve through lambda_plus.

    Enumerates hump counts (n_plus, n_minus) with |n_plus - n_minus| <= 1 and
    n_minus >= 1 and solves the relation for lambda_minus in closed form.
    Equal counts give the same root from either starting sign.
    """
    roots = set()
    n_plus = 0
    while n_plus * math.pi / math.sqrt(lambda_plus) < length:
        rem = length - n_plus * math.pi / math.sqrt(lambda_plus)
        for n_minus in (n_plus - 1, n_plus, n_plus + 1):
            if n_minus >= 1:
                lam_minus = (n_minus * math.pi / rem) ** 2
                if lo <= lam_minus <= hi:
                    roots.add(lam_minus)
        n_plus += 1
    return sorted(roots)


def fucik_sweep_grid(length: float, lambda_max: float,
                     n_samples: int) -> tuple[np.ndarray, float, float]:
    """The lambda_plus samples and the lambda_minus range a `fucik` sweep covers."""
    lam1 = (math.pi / length) ** 2
    lo = lam1 * (1.0 + 1e-9)
    return np.linspace(lo, lambda_max, n_samples), lo, lambda_max


def sign_changes(values: np.ndarray) -> int:
    s = np.sign(values[values != 0.0])
    return int(np.count_nonzero(s[1:] != s[:-1]))


def self_check() -> None:
    """Test every oracle against an independently known value; raise on mismatch."""
    length, n = math.pi, 199
    h = mesh_width(length, n)
    rng = np.random.default_rng(0)

    # Green's function inverse against the operator it inverts.
    r = rng.standard_normal(n)
    z = laplacian_inverse(r, h)
    if np.max(np.abs(apply_laplacian(z, h) - r)) > 1e-9 * np.max(np.abs(r)):
        raise AssertionError("laplacian_inverse does not invert the Laplacian")
    # <A w, w> = ||w||_{1,2}^2 and A w attains the dual-norm supremum at w.
    w = rng.standard_normal(n)
    if abs(dual_norm(apply_laplacian(w, h), h) - h10(w, h)) > 1e-9 * h10(w, h):
        raise AssertionError("dual_norm of A w differs from ||w||_{1,2}")
    # Discrete sine modes are exact eigenvectors: the linear residual vanishes.
    for k in (1, 2, 5):
        e = discrete_eigenvector(length, n, k)
        lam = discrete_eigenvalue(length, n, k)
        if dual_norm(half_eigen_residual(e, h, 0.0, lam), h) > 1e-9 * lam:
            raise AssertionError(f"discrete eigenpair {k} has a nonzero residual")
        # with coeff = 0 the quasilinear residual is the same operator
        if dual_norm(residual(e, h, 3.0, 0.0, lam, coeff=0.0), h) > 1e-9 * lam:
            raise AssertionError(f"residual's element flux misses the Laplacian for mode {k}")
    # Summation by parts: <R(u), w> = h sum_e F(g_e) w'_e - gamma (u^-, w) - lam (u, w)
    # with F(g) = c|g|^(p-2) g + g, for both exponent ranges.
    u = rng.standard_normal(n)
    for p, c in ((3.0, 1.0), (1.5, 0.3)):
        g, gw = gradients(u, h), gradients(w, h)
        weak = h * float((c * np.abs(g) ** (p - 2.0) * g + g) @ gw) \
            - 0.5 * h * float(np.maximum(-u, 0.0) @ w) - 2.0 * h * float(u @ w)
        strong = h * float(residual(u, h, p, 0.5, 2.0, c) @ w)
        if abs(weak - strong) > 1e-9 * (abs(weak) + 1.0):
            raise AssertionError(f"residual is not the weak form for p={p}")
    # Continuum half-eigenvalue: gamma = 0 gives k^2 on (0, pi).
    for k in (2, 3, 4):
        for which in (1, 2):
            if abs(continuum_half_eigenvalue(k, 0.0, math.pi, which) - k * k) > 1e-12 * k * k:
                raise AssertionError("continuum half-eigenvalue misses k^2 at gamma=0")
    # k=2, gamma=1: 1/sqrt(lam) + 1/sqrt(lam-1) = 1 becomes, with x = sqrt(lam),
    # x^2 = (x-1)^3 (x+1), i.e. x^4 - 2x^3 - x^2 + 2x - 1 = 0 with root x > 1.
    roots = np.roots([1.0, -2.0, -1.0, 2.0, -1.0])
    x = max(rt.real for rt in roots if abs(rt.imag) < 1e-12 and rt.real > 1.0)
    lam = continuum_half_eigenvalue(2, 1.0, math.pi, 1)
    if abs(lam - x * x) > 1e-12 * lam:
        raise AssertionError(f"k=2, gamma=1 root {lam!r} != {x * x!r}")
    if abs(continuum_half_eigenvalue(2, 1.0, math.pi, 2) - lam) > 1e-12 * lam:
        raise AssertionError("k=2 roots must not depend on the starting sign")
    # The same point lies on the (1,1) Fucik curve and the enumeration finds it.
    if not fucik_row_ok(lam, lam - 1.0, 1, 1, math.pi):
        raise AssertionError("k=2, gamma=1 point fails the Fucik relation")
    if fucik_row_ok(lam, lam - 1.0, 2, 1, math.pi):
        raise AssertionError("Fucik relation accepts wrong hump counts")
    if not any(abs(rt - (lam - 1.0)) <= 1e-12 * lam
               for rt in fucik_roots(lam, 1.0, 30.0, math.pi)):
        raise AssertionError("Fucik enumeration misses the k=2, gamma=1 point")
    # On (0, pi) the diagonal point (4, 4) is the second Dirichlet eigenvalue.
    if not any(abs(rt - 4.0) <= 1e-12 for rt in fucik_roots(4.0, 1.0, 30.0, math.pi)):
        raise AssertionError("Fucik enumeration misses the diagonal point (4, 4)")
    if sign_changes(discrete_eigenvector(length, n, 4)) != 3:
        raise AssertionError("sign_changes miscounts a 4-hump sine")
