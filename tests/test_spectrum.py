"""Linear Dirichlet eigenpairs: closed form, inverse iteration, Rayleigh search."""

import numpy as np
import pytest

from fucik_branch.grid import Grid, apply_laplacian, h10_norm, inner_l2, l2_norm
from fucik_branch.spectrum import closed_form_eigenvalue, continuum_eigenvalue, eigenpair

from oracles import eigenpair_iterative, rayleigh_lambda1


def test_lambda1_near_continuum(grid):
    pair = eigenpair(grid, 1)
    assert abs(pair.value - 1.0) <= 1e-3


def test_lambda2_near_continuum(grid):
    pair = eigenpair(grid, 2)
    assert abs(pair.value - 4.0) / 4.0 <= 1e-3


def test_eigenvector_orthonormality(grid):
    vecs = [eigenpair(grid, k).vector for k in range(1, 6)]
    for i, vi in enumerate(vecs):
        for j, vj in enumerate(vecs):
            expected = 1.0 if i == j else 0.0
            assert abs(inner_l2(vi, vj) - expected) <= 1e-8


def test_eigenpair_residual(grid):
    for k in (1, 2, 7):
        pair = eigenpair(grid, k)
        r = apply_laplacian(pair.vector) - pair.value * pair.vector
        assert l2_norm(r) <= 1e-10 * pair.value


def test_eigenvalues_strictly_increasing(grid):
    values = [closed_form_eigenvalue(grid, k) for k in range(1, 30)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sign_convention(grid):
    for k in (1, 2, 3, 6):
        vec = eigenpair(grid, k).vector.values
        first_nonzero = vec[np.nonzero(vec)[0][0]]
        assert first_nonzero > 0.0


def test_iterative_matches_closed_form(grid):
    for k in range(1, 11):
        closed = eigenpair(grid, k)
        iterative = eigenpair_iterative(grid, k)
        assert abs(iterative.value - closed.value) <= 1e-10 * closed.value
        # vectors agree up to the common sign convention
        diff = iterative.vector - closed.vector
        assert l2_norm(diff) <= 1e-6


def test_h_squared_convergence_rate():
    # halving h divides the eigenvalue error by roughly 4
    for k in (1, 2, 3):
        exact = continuum_eigenvalue(Grid(n_interior=99), k)
        err_coarse = abs(closed_form_eigenvalue(Grid(n_interior=99), k) - exact)
        err_fine = abs(closed_form_eigenvalue(Grid(n_interior=199), k) - exact)
        factor = err_coarse / err_fine
        assert 3.5 <= factor <= 4.5


def test_index_out_of_range(grid):
    with pytest.raises(ValueError):
        eigenpair(grid, 0)
    with pytest.raises(ValueError):
        eigenpair(grid, grid.n_interior + 1)
    eigenpair(grid, grid.n_interior)


def test_rayleigh_lambda1_brackets(grid):
    lam1 = closed_form_eigenvalue(grid, 1)
    found = rayleigh_lambda1(grid, trials=3)
    assert lam1 - 1e-6 <= found <= lam1 + 1e-4


def test_rayleigh_quotient_at_eigenvectors(grid):
    e1 = eigenpair(grid, 1)
    e2 = eigenpair(grid, 2)
    q1 = h10_norm(e1.vector) ** 2 / l2_norm(e1.vector) ** 2
    q2 = h10_norm(e2.vector) ** 2 / l2_norm(e2.vector) ** 2
    assert q1 == pytest.approx(e1.value, rel=1e-10)
    assert q2 == pytest.approx(e2.value, rel=1e-10)
    assert q2 >= q1


def test_rayleigh_requires_trials(grid):
    with pytest.raises(ValueError):
        rayleigh_lambda1(grid, trials=0)
