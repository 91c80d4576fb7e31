"""Tridiagonal linear solves (Thomas algorithm) and the symmetric tridiagonal matvec."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


def tridiag_factor(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """Forward elimination of tridiagonal T; returns the solver rhs -> T^{-1} rhs.

    lower has length n-1, diag n, upper n-1. No pivoting: a zero pivot raises
    ValueError, which for our symmetric positive or shifted systems signals a
    singular shift. Python floats run several times faster than numpy scalars."""
    low, piv, cp = lower.tolist(), diag.tolist(), upper.tolist()
    for i in range(len(piv)):
        if i > 0:
            cp[i - 1] /= piv[i - 1]
            piv[i] -= low[i - 1] * cp[i - 1]
        if piv[i] == 0.0:
            raise ValueError("zero pivot in tridiagonal solve")

    def solve(rhs: np.ndarray) -> np.ndarray:
        b = rhs.tolist()
        d = b[0] / piv[0]
        x = [d]
        for bi, li, pi in zip(b[1:], low, piv[1:]):
            d = (bi - li * d) / pi
            x.append(d)
        for i in range(len(x) - 2, -1, -1):
            d = x[i] - cp[i] * d
            x[i] = d
        return np.array(x)

    return solve


def thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve T x = rhs for tridiagonal T by forward elimination and back substitution."""
    return tridiag_factor(lower, diag, upper)(rhs)


def symmetric_tridiag_apply(diag: np.ndarray, off: np.ndarray,
                            x: np.ndarray) -> np.ndarray:
    """Matrix-vector product for a symmetric tridiagonal matrix."""
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y
