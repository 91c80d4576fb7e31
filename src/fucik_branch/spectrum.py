"""Eigenpairs of the discrete Dirichlet Laplacian on a uniform interval grid.

On a uniform P1 grid the eigenvectors are exact sine samples and the
eigenvalues have the closed form (2/h^2)(1 - cos(k pi h / L)). The tests
cross-check it by inverse iteration and a Rayleigh-quotient search
(tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._tridiag import thomas_solve  # noqa: F401 -- perfbench/tracer.py patches it by name here
from .grid import Field, Grid


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Eigenvalue and L2-normalized eigenvector; first nonzero nodal value positive."""

    k: int
    value: float
    vector: Field


def closed_form_eigenvalue(grid: Grid, k: int) -> float:
    _check_index(grid, k)
    h = grid.h
    return (2.0 / (h * h)) * (1.0 - math.cos(k * math.pi * h / grid.length))


def continuum_eigenvalue(grid: Grid, k: int) -> float:
    return (k * math.pi / grid.length) ** 2


def _check_index(grid: Grid, k: int) -> None:
    if not (isinstance(k, int) and 1 <= k <= grid.n_interior):
        raise ValueError(
            f"k must be an integer in [1, {grid.n_interior}], got {k}")


@lru_cache(maxsize=256)
def _eigenvector_values(grid: Grid, k: int) -> np.ndarray:
    vals = np.sin(k * math.pi * grid.nodes / grid.length)
    vals /= math.sqrt(grid.h * float(np.dot(vals, vals)))
    # the first value, sin(k pi / (n+1)) for 1 <= k <= n, is positive
    vals.setflags(write=False)
    return vals


def eigenpair(grid: Grid, k: int) -> EigenPair:
    """k-th eigenpair of the discrete Dirichlet Laplacian (closed form)."""
    _check_index(grid, k)
    return EigenPair(k=k, value=closed_form_eigenvalue(grid, k),
                     vector=Field(grid, _eigenvector_values(grid, k)))
