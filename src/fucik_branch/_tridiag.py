"""Symmetric tridiagonal solves, of systems given as (off, diag), and the matvec.

tridiag_factor takes one of two paths, chosen by the size of the system.

- Cyclic reduction, for systems with more than 2 CORE + 1 unknowns, where
  two levels fit above a core of at most CORE. Odd-even cyclic reduction
  (Hockney, J. ACM 12, 1965) eliminates every other unknown with numpy
  array operations, level after level, while the rows it eliminates have
  safely positive pivots, until at most CORE unknowns remain; the Thomas
  loop factors that core. A solve replays the levels on the right-hand
  side, solves the core and back-substitutes level by level.
- The Thomas loop over Python floats, for smaller systems. thomas_solve
  always takes it. When tridiag_factor is handed two to four right-hand
  sides, the loop that eliminates also substitutes forward and one loop
  substitutes back, for two columns at once; a column of complex numbers
  carries two right-hand sides as its real and imaginary parts. CPython's
  complex operations with the real factors reduce to the float operations,
  up to the sign of a zero, so each solution has the bits of a solve of its
  own. One such pass serves a Newton step of the continuation's corrector.

Cyclic reduction without pivoting is provably stable on diagonally dominant
systems: each reduced system is again diagonally dominant, with
off-diagonals that shrink from level to level (Heller, SIAM J. Numer. Anal.
13, 1976). The Jacobians of the monotone solves are such systems (M-matrices:
a stiffness matrix with positive weights plus a nonnegative diagonal) and
reduce down to the core. The continuation's Jacobians carry -lambda on every
row, so they are indefinite. Near a low mode every level still eliminates
positive pivots (for the Laplacian shifted by lambda_k the ratio of diagonal
to off-diagonal at level l is 2 cos(2^l k pi h / L)); near a high mode a later
level would not, and the reduction stops there and hands that level's system
to the Thomas loop as its core, which solves it, rather than raise. An
eliminated pivot is safe above 4 n eps times the magnitude of its row's
diagonal in the original system. A core pivot at or below that, in
magnitude, raises ValueError, which flags singular and numerically singular
systems (the Neumann matrix, say) and not only an exact zero; the Thomas path
raises on an exact zero pivot only. Results agree with the Thomas loop's to
round-off; below the threshold tridiag_factor is that loop, and the p < 2
trace keeps it at every size (quasilinear.Jacobian.factor). The threshold is
the measured crossover: one level costs about what it saves at 199 unknowns
(crossover table of BENCH_21.json).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

Solver = Callable[[np.ndarray], np.ndarray]

# Largest core the Thomas loop factors on the cyclic path, taken only above
# 2 CORE + 1 unknowns. Measured (micro table of BENCH_13.json): at 799 and
# beyond cores of 50 to 100 unknowns are fastest, and 128 keeps those cores.
CORE = 128
# slack of the weak diagonal dominance test, in ulps of the diagonal
_DOMINANCE_ULPS = 8
_EPS = float(np.finfo(float).eps)
_NEAR_ZERO_PIVOT = "zero pivot in cyclic reduction, to 4 n eps of its row's diagonal"
_ZERO_PIVOT = "zero pivot in tridiagonal solve"


def tridiag_factor(off: np.ndarray, diag: np.ndarray,
                   rhs: Sequence[np.ndarray] = ()) -> tuple[Solver, list[np.ndarray]]:
    """Factor the symmetric tridiagonal T; returns the solver b -> T^{-1} b
    and [T^{-1} b for b in rhs].

    off has length n-1, diag n. A system with n > 2 CORE + 1, definite or
    not, is factored by cyclic reduction, which raises ValueError on a core
    pivot within 4 n eps of its row's diagonal; a smaller one by the Thomas
    loop, which raises ValueError on a zero pivot. Neither pivots, so a
    ValueError signals a singular (or, on the cyclic path, numerically
    singular) system or, for the shifted systems, a singular shift."""
    if diag.size > 2 * CORE + 1:
        solve = _cyclic_factor(off, diag)
        return solve, [solve(b) for b in rhs]
    return _thomas_factor(off, diag, rhs)


def _is_m_matrix(off: np.ndarray, diag: np.ndarray) -> bool:
    """off <= 0 and each row's diag plus its two off-diagonal entries
    >= -_DOMINANCE_ULPS ulps of diag; False on NaN. Only Jacobian.factor's
    rank-one branch asks (see there)."""
    scale = 1.0 + _DOMINANCE_ULPS * _EPS
    # the middle row alone, first: a shifted system (-lambda on every row)
    # fails it at the cost of a few scalar operations
    i = diag.size // 2
    if diag.item(i) * scale + off.item(i - 1) + off.item(i) < 0.0:
        return False
    rows = diag * scale
    rows[1:] += off
    rows[:-1] += off
    return bool(rows.min() >= 0.0) and bool(off.max() <= 0.0)


def _eliminate(off: list[float], diag: list[float]) -> tuple[list[float], list[float]]:
    """Thomas forward elimination: the pivots and the multipliers off[i] /
    pivot[i]. Python floats run several times faster than numpy scalars."""
    p = diag[0]
    piv, cp = [p], []
    try:
        for o, d in zip(off, diag[1:]):
            c = o / p
            p = d - o * c
            cp.append(c)
            piv.append(p)
    except ZeroDivisionError:
        raise ValueError(_ZERO_PIVOT) from None
    if p == 0.0:
        raise ValueError(_ZERO_PIVOT)
    return piv, cp


def _eliminate_and_solve(off: list[float], diag: list[float], b: list, e: list
                         ) -> tuple[list[float], list[float], list, list]:
    """_eliminate with _sweeps of the columns b and e (lists of Python floats
    or complex numbers) in the same loops, each operation in its order there.
    Returns the pivots, the multipliers and the two solutions."""
    p = diag[0]
    piv, cp = [p], []
    try:
        d, f = b[0] / p, e[0] / p
        xb, xe = [d], [f]
        for o, di, bi, ei in zip(off, diag[1:], b[1:], e[1:]):
            c = o / p
            p = di - o * c
            # a zero pivot raises ZeroDivisionError here, before it is used
            d = (bi - o * d) / p
            f = (ei - o * f) / p
            cp.append(c)
            piv.append(p)
            xb.append(d)
            xe.append(f)
    except ZeroDivisionError:
        raise ValueError(_ZERO_PIVOT) from None
    for i in range(len(xb) - 2, -1, -1):
        c = cp[i]
        d = xb[i] - c * d
        xb[i] = d
        f = xe[i] - c * f
        xe[i] = f
    return piv, cp, xb, xe


def _sweeps(b: list[float], off: list[float], piv: list[float],
            cp: list[float]) -> np.ndarray:
    """Forward and back substitution with the factors of _eliminate."""
    d = b[0] / piv[0]
    x = [d]
    for bi, oi, pi in zip(b[1:], off, piv[1:]):
        d = (bi - oi * d) / pi
        x.append(d)
    for i in range(len(x) - 2, -1, -1):
        d = x[i] - cp[i] * d
        x[i] = d
    return np.fromiter(x, float, len(x))


def _column(re: np.ndarray, im: np.ndarray | None) -> list:
    """re, or re + i im, as a list of Python numbers."""
    if im is None:
        return re.tolist()
    z = np.empty(re.size, dtype=complex)
    z.real, z.imag = re, im
    return z.tolist()


def _thomas_factor(off: np.ndarray, diag: np.ndarray,
                   rhs: Sequence[np.ndarray] = ()) -> tuple[Solver, list[np.ndarray]]:
    """The Thomas factorization, with T^{-1} b for each b in rhs.

    Two to four right-hand sides are solved inside the factorization's loops
    (_eliminate_and_solve): column j carries rhs[j], and rhs[j + 2] as its
    imaginary part where there is one. Any other count is solved after it."""
    off_list = off.tolist()
    xs: list[np.ndarray] = []
    if 2 <= len(rhs) <= 4:
        cols = [_column(rhs[j], rhs[j + 2] if j + 2 < len(rhs) else None)
                for j in (0, 1)]
        piv, cp, *sols = _eliminate_and_solve(off_list, diag.tolist(), *cols)
        # float or complex, as the column; the real parts first, in column order
        arrays = [np.fromiter(x, type(x[0]), len(x)) for x in sols]
        xs = [np.ascontiguousarray(x.real) for x in arrays] \
            + [np.ascontiguousarray(x.imag) for x in arrays if x.dtype == complex]
    else:
        piv, cp = _eliminate(off_list, diag.tolist())

    def solve(b: np.ndarray) -> np.ndarray:
        return _sweeps(b.tolist(), off_list, piv, cp)

    return solve, xs + [solve(b) for b in rhs[len(xs):]]


def _cyclic_factor(off: np.ndarray, diag: np.ndarray) -> Solver:
    """Cyclic reduction of a symmetric tridiagonal system to a Thomas-factored core.

    The system is padded with decoupled unit rows to 2^levels * (m + 1) - 1
    unknowns, m <= CORE, so that every level has an odd count: it keeps the
    odd rows 1, 3, ..., each with both neighbours, and eliminates the even
    rows 0, 2, ..., whose pivots are the diagonal at that level. A reduced
    symmetric system is symmetric, so a level keeps one coupling array c,
    c[i] between rows i and i + 1. With floor[j] = 4 n eps |diag[j]|, a level
    runs only if its eliminated pivots exceed their rows' floor; otherwise
    its system, padding rows and all, is the core, and the core's pivots
    must exceed their floor in magnitude."""
    n = diag.size
    size, levels = n + 1, 0
    while size > CORE + 1:
        size, levels = (size + 1) // 2, levels + 1
    total = (size << levels) - 1
    c, d = np.zeros(total - 1), np.ones(total)
    c[:n - 1], d[:n] = off, diag
    floor = np.abs(d) * (4.0 * n * _EPS)
    steps = []
    for _ in range(levels):
        # kept row m couples to eliminated rows m (left) and m + 1 (right)
        d_even, left, right = d[0::2], c[0::2], c[1::2]
        if not (d_even > floor[0::2]).all():
            break
        neg_inv = -1.0 / d_even
        alpha = left * neg_inv[:-1]
        beta = right * neg_inv[1:]
        d = d[1::2] + alpha * left + beta * right
        c = beta[:-1] * left[1:]
        floor = floor[1::2]
        steps.append((alpha, beta, d_even, right / d_even[1:], left / d_even[:-1]))
    off_list = c.tolist()
    piv, cp = _eliminate(off_list, d.tolist())
    if not (np.abs(piv) > floor).all():
        raise ValueError(_NEAR_ZERO_PIVOT)

    def solve(rhs: np.ndarray) -> np.ndarray:
        # the levels only read r, so an unpadded right-hand side needs no copy
        r = rhs if total == n else np.concatenate((rhs, np.zeros(total - n)))
        evens = []
        for alpha, beta, _, _, _ in steps:
            r_even = r[0::2]
            r = r[1::2] + alpha * r_even[:-1] + beta * r_even[1:]
            evens.append(r_even)
        x = _sweeps(r.tolist(), off_list, piv, cp)
        for (_, _, d_even, right_scaled, left_scaled), r_even in zip(reversed(steps),
                                                                   reversed(evens)):
            x_even = r_even / d_even
            x_even[1:] -= right_scaled * x
            x_even[:-1] -= left_scaled * x
            full = np.empty(2 * x.size + 1)
            full[0::2] = x_even
            full[1::2] = x
            x = full
        return x[:n]

    return solve


def thomas_solve(off: np.ndarray, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve T x = rhs for symmetric tridiagonal T by the Thomas loop, whatever T is."""
    return _thomas_factor(off, diag, (rhs,))[1][0]


def symmetric_tridiag_apply(diag: np.ndarray, off: np.ndarray,
                            x: np.ndarray) -> np.ndarray:
    """Matrix-vector product for a symmetric tridiagonal matrix."""
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y
