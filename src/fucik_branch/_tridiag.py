"""Tridiagonal linear solves and the symmetric tridiagonal matvec.

tridiag_factor takes one of two paths, chosen by the system it is given.

- Cyclic reduction, for systems with more than CORE unknowns that are
  M-matrices: off-diagonals <= 0 and every row weakly diagonally dominant, up
  to _DOMINANCE_ULPS ulps of its diagonal. Odd-even cyclic reduction
  (Hockney, J. ACM 12, 1965) eliminates every other unknown with numpy array
  operations, level after level, until at most CORE unknowns remain; the
  Thomas loop factors that core. A solve replays the levels on the right-hand
  side, solves the core and back-substitutes level by level.
- The Thomas loop over Python floats, for every other system. thomas_solve
  always takes it. When tridiag_factor is handed two to four right-hand
  sides, the loop that eliminates also substitutes forward and one loop
  substitutes back, for two columns at once; a column of complex numbers
  carries two right-hand sides as its real and imaginary parts. CPython's
  complex operations with the real factors reduce to the float operations,
  up to the sign of a zero, so each solution has the bits of a solve of its
  own. One such pass serves a Newton step of the continuation's corrector.

The split follows diagonal dominance because that is where cyclic reduction
without pivoting is provably stable: each reduced system of a diagonally
dominant one is again diagonally dominant, with off-diagonals that shrink
from level to level (Heller, SIAM J. Numer. Anal. 13, 1976). The Jacobians of
the monotone solves are such systems: a stiffness matrix with positive
weights plus a nonnegative diagonal. The continuation's Jacobians carry
-lambda on every row, so they are indefinite and never dominant; they keep
the Thomas loop bit for bit, which matters because where the p = 1.5 traces
stall depends on round-off. On the cyclic path a pivot at or below
4 n eps times the diagonal of its row in the original system raises
ValueError, which flags singular and numerically singular M-matrices (the
Neumann matrix, say) and not only an exact zero; the Thomas path raises on
an exact zero pivot only.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

Solver = Callable[[np.ndarray], np.ndarray]

# Largest system the Thomas loop factors alone, and the largest core it
# factors on the cyclic path. Measured (micro table of BENCH_13.json): one
# level of cyclic reduction plus the dominance test costs more than it saves
# below about 200 unknowns, while at 799 and beyond cores of 50 to 100
# unknowns are fastest; 128 keeps those cores and loses a few percent
# between 129 and 200 unknowns.
CORE = 128
# slack of the weak diagonal dominance test, in ulps of the diagonal
_DOMINANCE_ULPS = 8
_EPS = float(np.finfo(float).eps)
_NEAR_ZERO_PIVOT = "zero pivot in cyclic reduction, to 4 n eps of its row's diagonal"
_ZERO_PIVOT = "zero pivot in tridiagonal solve"


def tridiag_factor(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                   rhs: Sequence[np.ndarray] = ()) -> tuple[Solver, list[np.ndarray]]:
    """Factor tridiagonal T; returns the solver b -> T^{-1} b and
    [T^{-1} b for b in rhs].

    lower has length n-1, diag n, upper n-1. An M-matrix with n > CORE is
    factored by cyclic reduction, which raises ValueError on a pivot that is
    not safely positive relative to its row; every other system by the Thomas
    loop, which raises ValueError on a zero pivot. Neither pivots, so a
    ValueError signals a singular (or, on the cyclic path, numerically
    singular) system or, for the shifted systems, a singular shift."""
    if diag.size > CORE and _is_m_matrix(lower, diag, upper):
        solve = _cyclic_factor(lower, diag, upper)
        return solve, [solve(b) for b in rhs]
    return _thomas_factor(lower, diag, upper, rhs)


def _is_m_matrix(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> bool:
    """Off-diagonals <= 0 and diag + lower + upper >= -_DOMINANCE_ULPS ulps of
    diag on every row; False on NaN."""
    scale = 1.0 + _DOMINANCE_ULPS * _EPS
    # the middle row alone, first: a shifted system (-lambda on every row)
    # fails it at the cost of a few scalar operations
    i = diag.size // 2
    if diag.item(i) * scale + lower.item(i - 1) + upper.item(i) < 0.0:
        return False
    rows = diag * scale
    rows[1:] += lower
    rows[:-1] += upper
    return bool(rows.min() >= 0.0) and bool(lower.max() <= 0.0) \
        and bool(upper.max() <= 0.0)


def _eliminate(low: list[float], piv: list[float], cp: list[float]) -> None:
    """Thomas forward elimination in place: piv becomes the pivots and cp the
    upper multipliers. Python floats run several times faster than numpy
    scalars."""
    for i in range(len(piv)):
        if i > 0:
            cp[i - 1] /= piv[i - 1]
            piv[i] -= low[i - 1] * cp[i - 1]
        if piv[i] == 0.0:
            raise ValueError(_ZERO_PIVOT)


def _eliminate_and_solve(low: list[float], diag: list[float], up: list[float],
                         b: list, e: list) -> tuple[list[float], list[float], list, list]:
    """_eliminate with _sweeps of the columns b and e (lists of Python floats
    or complex numbers) in the same loops, each operation in its order there.
    Returns the pivots, the upper multipliers and the two solutions."""
    p = diag[0]
    piv, cp = [p], []
    try:
        d, f = b[0] / p, e[0] / p
        xb, xe = [d], [f]
        for lo, di, ui, bi, ei in zip(low, diag[1:], up, b[1:], e[1:]):
            c = ui / p
            p = di - lo * c
            # a zero pivot raises ZeroDivisionError here, before it is used
            d = (bi - lo * d) / p
            f = (ei - lo * f) / p
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


def _sweeps(b: list[float], low: list[float], piv: list[float],
            cp: list[float]) -> np.ndarray:
    """Forward and back substitution with the factors of _eliminate."""
    d = b[0] / piv[0]
    x = [d]
    for bi, li, pi in zip(b[1:], low, piv[1:]):
        d = (bi - li * d) / pi
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


def _thomas_factor(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                   rhs: Sequence[np.ndarray] = ()) -> tuple[Solver, list[np.ndarray]]:
    """The Thomas factorization, with T^{-1} b for each b in rhs.

    Two to four right-hand sides are solved inside the factorization's loops
    (_eliminate_and_solve): column j carries rhs[j], and rhs[j + 2] as its
    imaginary part where there is one. Any other count is solved after it."""
    low, piv, cp = lower.tolist(), diag.tolist(), upper.tolist()
    xs: list[np.ndarray] = []
    if 2 <= len(rhs) <= 4:
        cols = [_column(rhs[j], rhs[j + 2] if j + 2 < len(rhs) else None)
                for j in (0, 1)]
        piv, cp, *sols = _eliminate_and_solve(low, piv, cp, *cols)
        # float or complex, as the column; the real parts first, in column order
        arrays = [np.fromiter(x, type(x[0]), len(x)) for x in sols]
        xs = [np.ascontiguousarray(x.real) for x in arrays] \
            + [np.ascontiguousarray(x.imag) for x in arrays if x.dtype == complex]
    else:
        _eliminate(low, piv, cp)

    def solve(b: np.ndarray) -> np.ndarray:
        return _sweeps(b.tolist(), low, piv, cp)

    return solve, xs + [solve(b) for b in rhs[len(xs):]]


def _cyclic_factor(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """Cyclic reduction of an M-matrix down to a Thomas-factored core.

    The system is padded with decoupled unit rows to 2^levels * (m + 1) - 1
    unknowns, m <= CORE, so that every level has an odd count: it keeps the
    odd rows 1, 3, ..., each with both neighbours, and eliminates the even
    rows 0, 2, ..., whose pivots are the diagonal at that level. Row j's
    pivots must exceed 4 n eps diag[j]."""
    n = diag.size
    size, levels = n + 1, 0
    while size > CORE + 1:
        size, levels = (size + 1) // 2, levels + 1
    total = (size << levels) - 1
    lo, d, up = np.zeros(total), np.ones(total), np.zeros(total)
    lo[1:n], d[:n], up[:n - 1] = lower, diag, upper
    floor = d * (4.0 * n * _EPS)
    steps = []
    for _ in range(levels):
        d_even, lo_even, up_even = d[0::2], lo[0::2], up[0::2]
        if not (d_even > floor[0::2]).all():
            raise ValueError(_NEAR_ZERO_PIVOT)
        neg_inv = -1.0 / d_even
        alpha = lo[1::2] * neg_inv[:-1]
        beta = up[1::2] * neg_inv[1:]
        d = d[1::2] + alpha * up_even[:-1] + beta * lo_even[1:]
        lo, up = alpha * lo_even[:-1], beta * up_even[1:]
        floor = floor[1::2]
        steps.append((alpha, beta, d_even, lo_even[1:] / d_even[1:],
                      up_even[:-1] / d_even[:-1]))
    low, piv, cp = lo[1:].tolist(), d.tolist(), up[:-1].tolist()
    _eliminate(low, piv, cp)
    if not (np.array(piv) > floor).all():
        raise ValueError(_NEAR_ZERO_PIVOT)

    def solve(rhs: np.ndarray) -> np.ndarray:
        r = np.zeros(total)
        r[:n] = rhs
        evens = []
        for alpha, beta, _, _, _ in steps:
            r_even = r[0::2]
            r = r[1::2] + alpha * r_even[:-1] + beta * r_even[1:]
            evens.append(r_even)
        x = _sweeps(r.tolist(), low, piv, cp)
        for (_, _, d_even, lo_scaled, up_scaled), r_even in zip(reversed(steps),
                                                               reversed(evens)):
            x_even = r_even / d_even
            x_even[1:] -= lo_scaled * x
            x_even[:-1] -= up_scaled * x
            full = np.empty(2 * x.size + 1)
            full[0::2] = x_even
            full[1::2] = x
            x = full
        return x[:n]

    return solve


def thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve T x = rhs for tridiagonal T by the Thomas loop, whatever T is."""
    return _thomas_factor(lower, diag, upper, (rhs,))[1][0]


def symmetric_tridiag_apply(diag: np.ndarray, off: np.ndarray,
                            x: np.ndarray) -> np.ndarray:
    """Matrix-vector product for a symmetric tridiagonal matrix."""
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y
