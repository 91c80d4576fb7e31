"""Uniform interval grid, nodal fields, and the discrete weak-form operators.

A Field stores interior nodal values only; the homogeneous Dirichlet values at
both endpoints are implicit. Operators return lumped-mass dual vectors (the P1
load vector divided by h), so that inner_l2(Au, w) realizes the duality
pairing <Au, w> and equals the weak form a(u, w). Zeroth-order terms use the
trapezoid rule, under which an L2 function is its own dual vector.

The discrete Poisson solve (laplacian_solve_values, and with it dual_norm) is
closed-form and O(n): the LU factors of tridiag(-1, 2, -1) are known, so
both sweeps are cumulative sums. Its solver is cached per Grid, and so is
the formatted node column of the field CSV.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from operator import attrgetter

import numpy as np

from ._tridiag import thomas_solve  # noqa: F401 -- perfbench/tracer.py patches it by name here

# Serialization format shared by every CSV writer in the package:
# 17 significant digits round-trips IEEE doubles exactly.
FLOAT_FORMAT = "%.17g"

_set = object.__setattr__  # how a record's __init__ sets each of its fields


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _Record:
    """Immutable record: __init__ sets its fields in order with _set. Compares by identity."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class _Value(_Record):
    """Record that compares and hashes by _key, its fields' tuple, kept on first hash."""
    __slots__ = ("_key",)

    def __init_subclass__(cls):  # the fields are the parameters __init__ annotates, in order
        cls._fields_of = attrgetter(*cls.__init__.__annotations__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        try:
            return self._key == other._key
        except AttributeError:  # not hashed yet; equal tuples hash alike
            return hash(self) == hash(other) and self._key == other._key

    def __hash__(self) -> int:
        try:
            return hash(self._key)
        except AttributeError:
            _set(self, "_key", self._fields_of(self))
            return hash(self._key)

    def __getstate__(self) -> dict:  # copy and pickle the fields only, not _key
        return vars(self)


class Grid(_Value):
    """Uniform grid on (0, length) with n_interior free nodes.

    The mesh width is h = length / (n_interior + 1); node i sits at x = i*h
    for i = 1 .. n_interior.
    """

    def __init__(self, length: float = math.pi, n_interior: int = 199):
        if not (_is_int(n_interior) and n_interior >= 3):
            raise ValueError(f"n_interior must be an integer >= 3, got {n_interior}")
        if not (math.isfinite(length) and length > 0.0):
            raise ValueError(f"length must be positive and finite, got {length}")
        _set(self, "length", length)
        _set(self, "n_interior", n_interior)
        # every discrete Dirichlet eigenvalue lies below 4/h^2
        h2 = self.h * self.h
        if not (h2 > 0.0 and math.isfinite(4.0 / h2)):
            raise ValueError(f"length {length} is too small for {n_interior} "
                             f"interior nodes: 4/h^2 overflows")

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates, shape (n_interior,)."""
        x = self.h * np.arange(1, self.n_interior + 1)
        x.setflags(write=False)
        return x

    @property
    def full_nodes(self) -> np.ndarray:
        """All node coordinates including both boundary points; the last is exactly length."""
        x = self.h * np.arange(0, self.n_interior + 2)
        x[-1] = self.length  # h*(n+1) can miss length by an ulp
        x.setflags(write=False)
        return x


class Field(_Record):
    """Interior nodal values of a piecewise-linear function vanishing at 0 and length."""

    def __init__(self, grid: Grid, values: np.ndarray):
        vals = np.array(values, dtype=float)
        if vals.shape != (grid.n_interior,):
            raise ValueError(f"value array of shape {vals.shape} does not match grid with "
                             f"{grid.n_interior} interior nodes")
        require_finite(vals)
        vals.setflags(write=False)
        _set(self, "grid", grid)
        _set(self, "values", vals)

    def __reduce__(self):  # copies and pickles go through __init__, so come back frozen
        return type(self), (self.grid, self.values)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n_interior))

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)


def _check_same_grid(u: Field, w: Field) -> None:
    if u.grid != w.grid:
        raise ValueError("fields live on different grids")


# The *_values helpers below act along the last axis, so one call covers a
# single field or a (pairs, n) block of fields; the Field functions below
# call them on a single row.

def require_finite(values: np.ndarray) -> None:
    """Reject nodal values that a Field would reject."""
    if not np.isfinite(values).all():
        raise ValueError("field values must be finite")


def gradient_values(values: np.ndarray, h: float) -> np.ndarray:
    """Element gradients along the last axis: n+1 per row, boundary values zero."""
    # the differences of [0, values, 0], with 0 - v (not -v) so zeros keep their sign
    g = np.empty(values.shape[:-1] + (values.shape[-1] + 1,))
    g[..., 0] = values[..., 0]
    np.subtract(values[..., 1:], values[..., :-1], out=g[..., 1:-1])
    np.subtract(0.0, values[..., -1], out=g[..., -1])
    g /= h
    return g


def dot_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis; each row gives the bits np.dot gives."""
    if a.ndim == 1:
        return np.dot(a, b)
    # stacked (1, n) @ (n, 1) products take the same BLAS dot per row
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def h10_values(g: np.ndarray, h: float) -> np.ndarray:
    """H^1_0 seminorms from element gradients g, along the last axis."""
    return np.sqrt(h * dot_values(g, g))


def w1p_values(g: np.ndarray, h: float, p: float) -> np.ndarray:
    """W^{1,p} seminorms from element gradients g, along the last axis."""
    return (h * np.sum(np.abs(g) ** p, axis=-1)) ** (1.0 / p)


def element_gradients(u: Field) -> np.ndarray:
    """Constant gradient on each of the n_interior+1 elements, boundary values zero."""
    return gradient_values(u.values, u.grid.h)


def apply_laplacian(u: Field) -> Field:
    """Dual vector of the Dirichlet Laplacian: (2u_i - u_{i-1} - u_{i+1}) / h^2."""
    return Field(u.grid, laplacian_values(u.values, u.grid.h))


def laplacian_values(v: np.ndarray, h: float) -> np.ndarray:
    """apply_laplacian of one field's nodal values."""
    out = 2.0 * v
    out[:-1] -= v[1:]
    out[1:] -= v[:-1]
    return out / (h * h)


def laplacian_solve_values(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve the discrete Poisson problem in closed form, O(n), no Python loop."""
    return _laplacian_factor(grid)(rhs)


@functools.lru_cache(maxsize=16)
def _laplacian_factor(grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
    # tridiag(-1, 2, -1) = LU with pivots (i+1)/i, i = 1..n, so both sweeps
    # are cumulative sums: i*y_i = S_i = sum_{m<=i} m*b_m forward, and
    # x_i/i = sum_{m>=i} S_m/(m(m+1)) back
    i = np.arange(1.0, grid.n_interior + 1.0)
    back = 1.0 / (i * (i + 1.0))
    scale = grid.h * grid.h * i

    def solve(rhs: np.ndarray) -> np.ndarray:
        s = np.cumsum(i * rhs) * back
        return scale * np.cumsum(s[::-1])[::-1]

    return solve


def inner_l2(u: Field, w: Field) -> float:
    """Trapezoid-rule L2 inner product; exact duality pairing for dual vectors."""
    _check_same_grid(u, w)
    return u.grid.h * float(dot_values(u.values, w.values))


def l2_norm(u: Field) -> float:
    return math.sqrt(u.grid.h * float(np.dot(u.values, u.values)))


def h10_norm(u: Field) -> float:
    return float(h10_values(element_gradients(u), u.grid.h))


def w1p_norm(u: Field, p: float) -> float:
    """W^{1,p} seminorm of the P1 interpolant, for a finite p > 1."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and exceed 1, got {p}")
    return float(w1p_values(element_gradients(u), u.grid.h, p))


def dual_norm(r: Field) -> float:
    """Norm of a dual vector over the discrete test space: sup <r, w> / ||w||_{1,2}."""
    return dual_norm_values(r.grid, r.values)


def dual_norm_values(grid: Grid, r: np.ndarray) -> float:
    """dual_norm of one dual vector's nodal values on grid."""
    z = laplacian_solve_values(grid, r)
    return math.sqrt(max(grid.h * float(np.dot(r, z)), 0.0))


def write_field_csv(u: Field, path) -> None:
    """Write x,value rows for all nodes, from x = 0 to exactly x = length;
    boundary rows carry value 0.

    The x column depends only on the grid, so it is formatted once per Grid
    and cached, like the Poisson solver. One % formats the value column into
    that cached text, which gives the bytes of formatting row by row.
    """
    body = _row_format(u.grid) % (0.0, *u.values.tolist(), 0.0)
    with open(path, "w", newline="") as fh:
        fh.write("x,value\n" + body)


@functools.lru_cache(maxsize=16)
def _row_format(grid: Grid) -> str:
    # each row's x as FLOAT_FORMAT text (which has no %), then FLOAT_FORMAT for its value
    return "".join([f"{FLOAT_FORMAT % x},{FLOAT_FORMAT}\n" for x in grid.full_nodes.tolist()])


def read_field_csv(path) -> Field:
    """Read a field written by write_field_csv, reconstructing its grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 5:
        raise ValueError("field file too short")
    if data.shape[1] != 2:
        raise ValueError(
            f"field file must have 2 columns (x, value), got {data.shape[1]}")
    x, vals = data[:, 0], data[:, 1]
    if x[0] != 0.0:
        raise ValueError(f"field file must start at x = 0, got x = {x[0]:.17g}")
    widths = np.diff(x)
    if not np.allclose(widths, widths[0], rtol=1e-12, atol=0.0):
        raise ValueError("field file is not on a uniform grid")
    if abs(vals[0]) > 0.0 or abs(vals[-1]) > 0.0:
        raise ValueError("boundary rows must carry value 0")
    grid = Grid(length=float(x[-1]), n_interior=int(x.size - 2))
    return Field(grid, vals[1:-1])
