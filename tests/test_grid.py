"""Discretization layer: parts, operators, norms, and CSV round trips."""

import math

import numpy as np
import pytest

from fucik_branch import grid as grid_module
from fucik_branch.grid import (
    FLOAT_FORMAT,
    Field,
    Grid,
    apply_laplacian,
    dot_values,
    dual_norm,
    element_gradients,
    gradient_values,
    h10_norm,
    h10_values,
    inner_l2,
    l2_norm,
    laplacian_solve_values,
    norms,
    read_field_csv,
    w1p_values,
    write_field_csv,
)
from fucik_branch.quasilinear import ProblemParams, _residual, residual_original
from fucik_branch.spectrum import closed_form_eigenvalue, eigenpair

from conftest import random_field
from oracles import apply_p_laplacian, pos_neg_parts


def stiffness_matrix(grid: Grid) -> np.ndarray:
    # independent dense oracle for the tridiagonal Laplacian action
    n = grid.n_interior
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return a / grid.h**2


def test_grid_basic_geometry():
    g = Grid(length=2.0, n_interior=9)
    assert g.h == pytest.approx(0.2)
    assert g.nodes.shape == (9,)
    assert g.full_nodes.shape == (11,)
    assert g.nodes[0] == pytest.approx(0.2)
    assert g.full_nodes[0] == 0.0
    assert g.full_nodes[-1] == 2.0
    # h*(n+1) is one ulp above pi here; the boundary node is exactly length
    assert Grid(n_interior=199).full_nodes[-1] == math.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(n_interior=2)
    with pytest.raises(ValueError):
        Grid(length=0.0)
    with pytest.raises(ValueError):
        Grid(length=-1.0)


@pytest.mark.parametrize("length, n", [(1e-300, 199), (1e-200, 199), (1e-153, 3199)])
def test_grid_rejects_a_length_whose_h2_underflows(length, n):
    with pytest.raises(ValueError, match="4/h\\^2 overflows"):
        Grid(length=length, n_interior=n)


def test_grid_accepts_the_smallest_lengths_with_finite_4_over_h2():
    # every discrete eigenvalue lies below 4/h^2, so that bound must be finite
    # h = 2^-510: h^2 = 2^-1020, 4/h^2 = 2^1022
    g = Grid(length=8.0 * 2.0 ** -510, n_interior=7)
    assert 4.0 / (g.h * g.h) == 2.0 ** 1022
    assert closed_form_eigenvalue(g, 7) < math.inf
    # h = 2^-511: h^2 = 2^-1022, the smallest normal double; 1/h^2 = 2^1022 is
    # finite but 4/h^2 = 2^1024 overflows
    with pytest.raises(ValueError, match="4/h\\^2 overflows"):
        Grid(length=8.0 * 2.0 ** -511, n_interior=7)
    # h = 2^-520: h^2 = 2^-1040 is subnormal but not zero
    with pytest.raises(ValueError, match="4/h\\^2 overflows"):
        Grid(length=8.0 * 2.0 ** -520, n_interior=7)


def test_field_validation():
    g = Grid(n_interior=5, length=1.0)
    with pytest.raises(ValueError):
        Field(g, np.array([1.0, 2.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Field(g, np.zeros(4))


def test_field_zero_norm_iff_zero(grid, rng):
    assert l2_norm(Field.zeros(grid)) == 0.0
    u = random_field(grid, rng)
    assert l2_norm(u) > 0.0


def test_pos_neg_parts_small_example():
    g = Grid(n_interior=3, length=1.0)
    u = Field(g, np.array([1.0, -2.0, 3.0]))
    up, um = pos_neg_parts(u)
    assert np.array_equal(up.values, [1.0, 0.0, 3.0])
    assert np.array_equal(um.values, [0.0, 2.0, 0.0])


def test_pos_neg_parts_nonnegative_input(grid, rng):
    u = Field(grid, np.abs(rng.standard_normal(grid.n_interior)))
    up, um = pos_neg_parts(u)
    assert np.array_equal(um.values, np.zeros(grid.n_interior))
    assert np.array_equal(up.values, u.values)


def test_pos_neg_parts_zero(grid):
    up, um = pos_neg_parts(Field.zeros(grid))
    assert not up.values.any()
    assert not um.values.any()


def test_pos_neg_parts_reconstruct(grid, rng):
    for _ in range(5):
        u = random_field(grid, rng)
        up, um = pos_neg_parts(u)
        # max(u,0) - max(-u,0) returns u without rounding in IEEE arithmetic
        assert np.array_equal(up.values - um.values, u.values)
        assert np.all(up.values >= 0.0) and np.all(um.values >= 0.0)
        assert np.all(up.values * um.values == 0.0)


def test_apply_laplacian_zero(grid):
    out = apply_laplacian(Field.zeros(grid))
    assert not out.values.any()


def test_apply_laplacian_matches_dense_matrix(grid, rng):
    a = stiffness_matrix(grid)
    u = random_field(grid, rng)
    out = apply_laplacian(u)
    np.testing.assert_allclose(out.values, a @ u.values, rtol=1e-12, atol=1e-12)


def test_apply_laplacian_eigenvector(grid):
    for k in (1, 2, 5):
        e = eigenpair(grid, k).vector
        mu = closed_form_eigenvalue(grid, k)
        out = apply_laplacian(e)
        np.testing.assert_allclose(out.values, mu * e.values, rtol=0.0,
                                   atol=1e-9 * mu)


def test_apply_laplacian_linearity(grid, rng):
    u = random_field(grid, rng)
    w = random_field(grid, rng)
    lhs = apply_laplacian(1.7 * u + (-0.3) * w)
    rhs = 1.7 * apply_laplacian(u) + (-0.3) * apply_laplacian(w)
    np.testing.assert_allclose(lhs.values, rhs.values, rtol=1e-12, atol=1e-9)


def test_laplacian_solve_round_trip(grid, rng):
    u = random_field(grid, rng)
    back = laplacian_solve_values(grid, apply_laplacian(u).values)
    np.testing.assert_allclose(back, u.values, rtol=1e-10, atol=1e-12)


def test_apply_p_laplacian_zero(grid):
    for p in (1.5, 3.0):
        assert not apply_p_laplacian(Field.zeros(grid), p).values.any()


def test_apply_p_laplacian_homogeneity(grid, rng):
    u = random_field(grid, rng)
    for p in (1.5, 2.5, 3.0):
        for c in (0.25, 2.0, 10.0):
            lhs = apply_p_laplacian(c * u, p)
            rhs = c ** (p - 1.0) * apply_p_laplacian(u, p)
            np.testing.assert_allclose(lhs.values, rhs.values, rtol=1e-10,
                                       atol=1e-12)


def test_apply_p_laplacian_p2_is_laplacian(grid, rng):
    u = random_field(grid, rng)
    lhs = apply_p_laplacian(u, 2.0)
    rhs = apply_laplacian(u)
    np.testing.assert_allclose(lhs.values, rhs.values, rtol=1e-12, atol=1e-10)


def test_apply_p_laplacian_rejects_small_p(grid):
    u = Field.zeros(grid)
    with pytest.raises(ValueError):
        apply_p_laplacian(u, 1.0)
    with pytest.raises(ValueError):
        apply_p_laplacian(u, 0.5)


def test_p_laplacian_monotonicity(grid, rng):
    # duality pairing of flux differences against value differences is >= 0
    for p in (1.3, 1.5, 2.5, 3.0, 4.0):
        for _ in range(20):
            u = random_field(grid, rng)
            w = random_field(grid, rng)
            pairing = inner_l2(apply_p_laplacian(u, p) - apply_p_laplacian(w, p),
                               u - w)
            assert pairing >= -1e-12


def test_inner_l2_consistency(grid, rng):
    u = random_field(grid, rng)
    rep = norms(u, 2.0)
    assert inner_l2(u, u) == pytest.approx(rep.l2**2, rel=1e-12)


def test_inner_l2_grid_mismatch():
    u = Field.zeros(Grid(n_interior=5, length=1.0))
    w = Field.zeros(Grid(n_interior=7, length=1.0))
    with pytest.raises(ValueError):
        inner_l2(u, w)


def test_normalized_sine_has_unit_l2(grid):
    ll = grid.length
    u = Field.from_function(grid, lambda x: math.sqrt(2.0 / ll) * math.sin(math.pi * x / ll))
    rep = norms(u, 2.0)
    assert abs(rep.l2 - 1.0) <= grid.h**2


def test_norms_zero_field(grid):
    rep = norms(Field.zeros(grid), 3.0)
    assert rep.l2 == 0.0 and rep.h10 == 0.0 and rep.w1p == 0.0


def test_norms_rejects_small_p(grid):
    with pytest.raises(ValueError):
        norms(Field.zeros(grid), 1.0)


def test_rayleigh_lower_bound(grid, rng):
    mu1 = closed_form_eigenvalue(grid, 1)
    for _ in range(20):
        u = random_field(grid, rng)
        lhs = inner_l2(apply_laplacian(u), u)
        assert lhs >= mu1 * l2_norm(u) ** 2 * (1.0 - 1e-12)


def test_element_gradients_hat_function():
    g = Grid(n_interior=3, length=1.0)
    u = Field(g, np.array([1.0, 0.0, 0.0]))
    grads = element_gradients(u)
    np.testing.assert_allclose(grads, [4.0, -4.0, 0.0, 0.0])


def test_element_gradients_keep_the_sign_of_zero():
    # the end elements take 0 - u, as differences of [0, u, 0] do
    u = Field(Grid(n_interior=3), np.array([-0.0, 1.0, 0.0]))
    g = element_gradients(u)
    assert math.copysign(1.0, g[0]) == -1.0 and math.copysign(1.0, g[-1]) == 1.0


def test_block_helpers_match_single_fields(grid, rng):
    # a (rows, n) block gives, row by row, the bits of the single-Field
    # functions, except that the 1/p power of a whole row array may differ
    # from the scalar power in the last place
    block = rng.standard_normal((5, grid.n_interior)) * 10.0 ** rng.uniform(-2, 2, (5, 1))
    block[2] = 0.0
    h = grid.h
    g = gradient_values(block, h)
    params = ProblemParams(p=3.0, gamma=0.5, lam=0.7)
    res = _residual(block, g, h, params, 1.0)
    dots = h * dot_values(block, res)
    for i, row in enumerate(block):
        u = Field(grid, row)
        assert np.array_equal(g[i], element_gradients(u))
        assert np.array_equal(res[i], residual_original(u, params).values)
        assert dots[i] == inner_l2(u, residual_original(u, params))
        assert h10_values(g, h)[i] == h10_norm(u) == norms(u, 3.0).h10
        for p in (1.5, 3.0):
            assert w1p_values(g, h, p)[i] == pytest.approx(norms(u, p).w1p,
                                                           rel=1e-15, abs=0.0)


def test_cached_laplacian_solve_matches_dense(rng):
    # one closed-form solver per grid, reused, accurate to round-off against
    # LAPACK on the dense matrix
    for n in (3, 4, 199, 799, 3199):
        grid = Grid(n_interior=n)
        assert grid_module._laplacian_factor(grid) is grid_module._laplacian_factor(
            Grid(n_interior=n))
        dense = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
                 - np.diag(np.ones(n - 1), -1)) / grid.h**2
        for rhs in (rng.standard_normal(n),
                    np.sin(3.0 * math.pi * grid.nodes / grid.length),
                    (-1.0) ** np.arange(n)):
            exact = np.linalg.solve(dense, rhs)
            err = np.max(np.abs(laplacian_solve_values(grid, rhs) - exact))
            assert err <= 1e-11 * np.max(np.abs(exact))


def test_dual_norm_of_laplacian_is_h10(grid, rng):
    u = random_field(grid, rng)
    assert dual_norm(apply_laplacian(u)) == pytest.approx(h10_norm(u), rel=1e-10)


def test_field_csv_round_trip(tmp_path, rng):
    for n in (10, 199, 399, 799):
        grid = Grid(n_interior=n)
        u = random_field(grid, rng)
        path = tmp_path / f"field{n}.csv"
        write_field_csv(u, path)
        back = read_field_csv(path)
        assert back.grid == grid
        assert not (back - u).values.any()  # same grid, so the fields combine
        lines = path.read_text().splitlines()
        assert lines[0] == "x,value"
        assert lines[1] == "0,0"
        assert lines[-1] == f"{FLOAT_FORMAT % grid.length},0"
        assert len(lines) == n + 3


@pytest.mark.parametrize("n", [3, 199, 799])
def test_field_csv_matches_row_by_row_formatting(tmp_path, rng, n):
    grid = Grid(n_interior=n)
    values = random_field(grid, rng).values.copy()
    values[0] = -0.0
    u = Field(grid, values)
    path = tmp_path / "field.csv"
    write_field_csv(u, path)
    xs = [0.0, *(i * grid.h for i in range(1, n + 1)), grid.length]
    values = [0.0, *(float(v) for v in u.values), 0.0]
    expected = "x,value\n" + "".join(
        f"{FLOAT_FORMAT % x},{FLOAT_FORMAT % v}\n" for x, v in zip(xs, values))
    assert path.read_bytes() == expected.encode()


def test_field_csv_rejects_nonzero_boundary(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0,1\n0.25,2\n0.5,3\n0.75,4\n1,0\n")
    with pytest.raises(ValueError):
        read_field_csv(path)


@pytest.mark.filterwarnings("ignore:loadtxt")  # numpy warns on a file with no rows
@pytest.mark.parametrize("text", ["x,value\n", "x,value\n0,0\n"],
                         ids=["header-only", "one-row"])
def test_field_csv_rejects_short_files(tmp_path, text):
    path = tmp_path / "short.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="field file too short"):
        read_field_csv(path)


@pytest.mark.parametrize("rows", [
    ["0", "1", "2", "3", "4"],
    ["0,0,9", "0.25,1,9", "0.5,2,9", "0.75,1,9", "1,0,9"],
], ids=["one-column", "three-columns"])
def test_field_csv_rejects_wrong_column_count(tmp_path, rows):
    path = tmp_path / "columns.csv"
    path.write_text("x,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="2 columns"):
        read_field_csv(path)


def test_field_csv_rejects_x_not_starting_at_zero(tmp_path):
    # uniform rows x = 1 .. 7 would otherwise read as a grid of length 7 with
    # h = 7/6 instead of the file's spacing 1
    path = tmp_path / "shifted.csv"
    path.write_text("x,value\n" + "".join(f"{x},{v}\n" for x, v in
                                          zip(range(1, 8), [0, 1, 2, 3, 2, 1, 0])))
    with pytest.raises(ValueError, match="x = 0"):
        read_field_csv(path)
