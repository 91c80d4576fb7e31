"""Residuals, Jacobians, energy, and the infinity transform."""

import math

import numpy as np
import pytest

from fucik_branch import _tridiag, quasilinear
from fucik_branch.continuation import newton_at_lambda
from fucik_branch.grid import (
    Field,
    apply_laplacian,
    dual_norm,
    element_gradients,
    h10_norm,
    inner_l2,
    l2_norm,
)
from fucik_branch.quasilinear import (
    ProblemParams,
    energy,
    from_infinity_variable,
    jacobian_original,
    jacobian_transformed,
    residual_original,
    residual_transformed,
    residual_weak,
    to_infinity_variable,
    transform_coefficient,
)
from fucik_branch.spectrum import closed_form_eigenvalue, eigenpair

from conftest import counting, random_field
from oracles import apply_p_laplacian, pos_neg_parts


def smooth_field(grid, rng, min_node=1e-4):
    """Random low-frequency field bounded away from zero nodal values."""
    basis = [eigenpair(grid, k).vector.values for k in (1, 2, 3)]
    for _ in range(100):
        coef = rng.standard_normal(3)
        vals = sum(c * b for c, b in zip(coef, basis))
        if np.min(np.abs(vals)) > min_node:
            return Field(grid, vals)
    raise AssertionError("could not draw a field clear of zero nodal values")


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(p=2.0, gamma=0.0, lam=1.0)
    with pytest.raises(ValueError):
        ProblemParams(p=1.0, gamma=0.0, lam=1.0)
    with pytest.raises(ValueError):
        ProblemParams(p=3.0, gamma=-0.5, lam=1.0)
    with pytest.raises(ValueError):
        ProblemParams(p=3.0, gamma=0.5, lam=math.inf)
    ProblemParams(p=3.0, gamma=0.5, lam=1.0)
    ProblemParams(p=1.5, gamma=0.0, lam=-2.0)


@pytest.mark.parametrize("field, good, bad", [
    ("p", 1.5, [math.nan, math.inf, -math.inf, 2.0, 1.0, 0.5]),
    ("gamma", 0.0, [math.nan, math.inf, -math.inf, -0.1]),
    ("lam", -2.0, [math.nan, math.inf, -math.inf]),
])
def test_params_field_must_be_finite_and_in_range(field, good, bad):
    base = {"p": 3.0, "gamma": 0.5, "lam": 1.0}
    assert getattr(ProblemParams(**{**base, field: good}), field) == good
    for value in bad:
        with pytest.raises(ValueError, match=f"^{field} .*, got {value}$"):
            ProblemParams(**{**base, field: value})


def test_residual_original_zero(grid):
    params = ProblemParams(p=3.0, gamma=0.5, lam=4.0)
    assert not residual_original(Field.zeros(grid), params).values.any()


def test_residual_original_eigen_expansion(grid):
    # at u = t*e_k the p-term is O(t^{p-1}); the linear part dominates
    t = 1e-4
    ek = eigenpair(grid, 2)
    params = ProblemParams(p=3.0, gamma=0.0, lam=1.3)
    r = residual_original(t * ek.vector, params)
    lead = (ek.value - 1.3) * t * ek.vector
    p_term = apply_p_laplacian(ek.vector, 3.0)
    assert l2_norm(r - lead) <= 2.0 * t**2 * l2_norm(p_term)


def test_reparameterization_identity(grid, rng):
    # lambda_plus*u^+ - lambda_minus*u^- = lam*u + gamma*u^- with gamma = l+ - l-
    for _ in range(5):
        u = random_field(grid, rng)
        lam_plus, lam_minus = 7.3, 5.1
        up, um = pos_neg_parts(u)
        lhs = lam_plus * up.values - lam_minus * um.values
        rhs = lam_plus * u.values + (lam_plus - lam_minus) * um.values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_residual_weak_matches_original(grid, rng):
    for _ in range(5):
        u = random_field(grid, rng)
        lam_plus, lam_minus = 6.0, 4.5
        params = ProblemParams(p=3.0, gamma=lam_plus - lam_minus, lam=lam_plus)
        weak = residual_weak(u, lam_plus, lam_minus, 3.0)
        strong = dual_norm(residual_original(u, params))
        assert weak == pytest.approx(strong, rel=1e-12)


def test_residual_weak_at_half_eigenpair(grid):
    from fucik_branch.halfeig import split_eigenvalues

    pair = split_eigenvalues(grid, 2, 1.0)
    rw = residual_weak(pair.v1, pair.lambda1, pair.lambda1 - 1.0, 3.0)
    p_term = dual_norm(apply_p_laplacian(pair.v1, 3.0))
    assert rw > 0.01
    assert rw == pytest.approx(p_term, abs=1e-7)


def test_residual_weak_rejects_zero(grid):
    with pytest.raises(ValueError):
        residual_weak(Field.zeros(grid), 1.0, 1.0, 3.0)


def test_trivial_only_region(grid, rng):
    lam1 = closed_form_eigenvalue(grid, 1)
    params = ProblemParams(p=3.0, gamma=0.0, lam=0.5 * lam1)
    for _ in range(5):
        u0 = random_field(grid, rng, scale=0.5)
        sol = newton_at_lambda(u0, params)
        assert l2_norm(sol) <= 1e-8


def test_jacobian_matches_finite_differences(grid, rng):
    for p in (3.0, 2.5, 1.5):
        params = ProblemParams(p=p, gamma=0.5, lam=3.0)
        for _ in range(4):
            u = smooth_field(grid, rng)
            d = random_field(grid, rng)
            jac = jacobian_original(u, params)
            step = 1e-6 * h10_norm(u) / h10_norm(d)
            fplus = residual_original(Field(grid, u.values + step * d.values), params)
            fminus = residual_original(Field(grid, u.values - step * d.values), params)
            fd = (fplus.values - fminus.values) / (2.0 * step)
            jd = jac.apply_values(d.values)
            err = np.linalg.norm(fd - jd) / np.linalg.norm(jd)
            assert err <= 1e-5


def test_jacobian_gamma_term_vanishes_on_positive(grid):
    u = Field(grid, 0.1 + np.abs(np.sin(3.0 * grid.nodes)))
    with_gamma = jacobian_original(u, ProblemParams(p=3.0, gamma=2.0, lam=1.0))
    without = jacobian_original(u, ProblemParams(p=3.0, gamma=0.0, lam=1.0))
    np.testing.assert_allclose(with_gamma.as_matrix(), without.as_matrix(),
                               rtol=0.0, atol=0.0)


def test_jacobian_p2_limit(grid, rng):
    u = smooth_field(grid, rng)
    d = random_field(grid, rng)
    lap = apply_laplacian(d).values
    diag_part = 0.5 * (u.values < 0.0) - 3.0
    expected = 2.0 * lap + diag_part * d.values
    for p in (2.0 + 1e-9, 2.0 - 1e-9):
        jac = jacobian_original(u, ProblemParams(p=p, gamma=0.5, lam=3.0))
        np.testing.assert_allclose(jac.apply_values(d.values), expected,
                                   rtol=1e-6, atol=1e-6 * np.max(np.abs(lap)))


def test_jacobian_symmetry(grid, rng):
    params = ProblemParams(p=3.0, gamma=0.7, lam=2.0)
    u = random_field(grid, rng)
    jac = jacobian_original(u, params)
    for _ in range(5):
        w = random_field(grid, rng)
        z = random_field(grid, rng)
        lhs = inner_l2(Field(grid, jac.apply_values(w.values)), z)
        rhs = inner_l2(w, Field(grid, jac.apply_values(z.values)))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_jacobians_finite_at_zero_gradient(grid, rng):
    # a flat element gives an exactly zero gradient, where |g|^{p-2} is
    # infinite for p < 2; the Jacobians' own eps floor keeps them finite
    params = ProblemParams(p=1.5, gamma=0.5, lam=1.0)
    vals = 0.1 * random_field(grid, rng).values
    vals[11] = vals[10]
    u = Field(grid, vals)
    assert np.count_nonzero(element_gradients(u) == 0.0) == 1
    for jac in (jacobian_original(u, params), jacobian_transformed(u, params)):
        assert np.all(np.isfinite(jac.as_matrix()))
        x = jac.solve_values(np.ones(grid.n_interior))
        assert np.all(np.isfinite(x))


def test_energy_gradient_is_residual(grid, rng):
    for p in (3.0, 1.5):
        params = ProblemParams(p=p, gamma=0.8, lam=2.5)
        u = random_field(grid, rng)
        r = residual_original(u, params)
        for _ in range(3):
            d = random_field(grid, rng)
            t = 1e-6 * h10_norm(u) / h10_norm(d)
            slope = (energy(Field(grid, u.values + t * d.values), params)
                     - energy(Field(grid, u.values - t * d.values), params)) / (2.0 * t)
            assert slope == pytest.approx(inner_l2(r, d), rel=1e-5)


def test_sign_part_pairing_nonnegative(grid, rng):
    gamma = 1.3
    for _ in range(20):
        u = random_field(grid, rng)
        w = random_field(grid, rng)
        du_minus = pos_neg_parts(u)[1] - pos_neg_parts(w)[1]
        pairing = inner_l2(-gamma * du_minus, u - w)
        assert pairing >= -1e-12


def test_transform_norm_identity(grid, rng):
    u = random_field(grid, rng)
    u = (16.0 / h10_norm(u)) * u
    tf = to_infinity_variable(u, 1.5)
    assert h10_norm(tf.v) == pytest.approx(0.5, rel=1e-12)
    assert tf.coeff == pytest.approx(0.5**2.5, rel=1e-12)
    assert tf.coeff == pytest.approx(transform_coefficient(tf.v, 1.5), rel=1e-15)


def test_transform_round_trip(grid, rng):
    for p in (1.2, 1.5, 1.8):
        u = random_field(grid, rng, scale=rng.uniform(0.1, 50.0))
        v = to_infinity_variable(u, p).v
        back = from_infinity_variable(v, p)
        assert h10_norm(back - u) <= 1e-10 * h10_norm(u)
        w = to_infinity_variable(back, p).v
        assert h10_norm(w - v) <= 1e-10 * h10_norm(v)


def test_transform_sends_infinity_to_zero(grid, rng):
    # ||v|| = ||u||^{p/2 - 1}, so growing u by 10 shrinks v by 10^{-1/4} at p = 1.5
    u = random_field(grid, rng)
    norms_v = [h10_norm(to_infinity_variable((10.0**j) * u, 1.5).v)
               for j in range(6)]
    assert all(b < a for a, b in zip(norms_v, norms_v[1:]))
    for a, b in zip(norms_v, norms_v[1:]):
        assert b / a == pytest.approx(10.0**-0.25, rel=1e-10)


def test_transform_rejects_bad_input(grid, rng):
    u = random_field(grid, rng)
    with pytest.raises(ValueError):
        to_infinity_variable(u, 3.0)
    with pytest.raises(ValueError):
        to_infinity_variable(Field.zeros(grid), 1.5)
    with pytest.raises(ValueError):
        from_infinity_variable(Field.zeros(grid), 1.5)


def test_residual_transformed_zero(grid):
    params = ProblemParams(p=1.5, gamma=0.5, lam=4.0)
    assert not residual_transformed(Field.zeros(grid), params).values.any()
    with pytest.raises(ValueError):
        residual_transformed(Field.zeros(grid), ProblemParams(p=3.0, gamma=0.5, lam=4.0))


def test_residual_transformed_scaling_identity(grid, rng):
    # residual_original at the back-transformed field is the transformed
    # residual times s = ||u|| / ||v||, exactly
    params = ProblemParams(p=1.5, gamma=0.5, lam=4.0)
    for _ in range(5):
        v = random_field(grid, rng, scale=rng.uniform(0.05, 2.0))
        u = from_infinity_variable(v, 1.5)
        s = h10_norm(u) / h10_norm(v)
        r_t = residual_transformed(v, params)
        r_o = residual_original(u, params)
        np.testing.assert_allclose(r_o.values, s * r_t.values, rtol=1e-9,
                                   atol=1e-9 * s * np.max(np.abs(r_t.values)))


def test_residual_transformed_equivalence_on_branch(branch_p15, grid):
    # solved transformed instances back-transform to solved original instances
    seed = branch_p15.seed
    checked = 0
    for pt in branch_p15.points:
        if h10_norm(pt.u) < 0.3:
            continue
        params = ProblemParams(p=seed.p, gamma=seed.gamma, lam=pt.lam)
        u = from_infinity_variable(pt.u, seed.p)
        assert dual_norm(residual_original(u, params)) <= 1e-7
        checked += 1
    assert checked >= 3


def test_p_term_coefficient_vanishes(grid, rng):
    v = random_field(grid, rng)
    coeffs = [transform_coefficient((0.5**j) * v, 1.5) for j in range(8)]
    assert all(b < a for a, b in zip(coeffs, coeffs[1:]))
    assert coeffs[-1] < 1e-3 * coeffs[0]


def test_jacobian_transformed_matches_finite_differences(grid, rng):
    params = ProblemParams(p=1.5, gamma=0.5, lam=4.0)
    for _ in range(4):
        v = smooth_field(grid, rng)
        v = (0.5 / h10_norm(v)) * v
        d = random_field(grid, rng)
        jac = jacobian_transformed(v, params)
        step = 1e-7 * h10_norm(v) / h10_norm(d)
        fplus = residual_transformed(Field(grid, v.values + step * d.values), params)
        fminus = residual_transformed(Field(grid, v.values - step * d.values), params)
        fd = (fplus.values - fminus.values) / (2.0 * step)
        jd = jac.apply_values(d.values)
        assert np.linalg.norm(fd - jd) / np.linalg.norm(jd) <= 1e-5


def test_rank_one_solve_factors_once(grid, rng, monkeypatch):
    counts = {"tridiag_factor": 0, "_thomas_factor": 0}
    for name in counts:
        monkeypatch.setattr(quasilinear, name,
                            counting(counts, name, getattr(quasilinear, name)))
    v = smooth_field(grid, rng)
    v = (0.5 / h10_norm(v)) * v
    # lam = 4 (a trace's operator) factors by the Thomas loop itself; at
    # lam = 0 (the ball solve's operator) the tridiagonal part is an M-matrix,
    # which tridiag_factor takes
    for lam, name in ((4.0, "_thomas_factor"), (0.0, "tridiag_factor")):
        jac = jacobian_transformed(v, ProblemParams(p=1.5, gamma=0.5, lam=lam))
        assert jac.rank_one is not None
        assert _tridiag._is_m_matrix(jac.off, jac.diag) is (name == "tridiag_factor")
        rhs = rng.standard_normal(grid.n_interior)
        counts.update(dict.fromkeys(counts, 0))
        x = jac.solve_values(rhs)
        assert counts == {**dict.fromkeys(counts, 0), name: 1}
        dense = jac.as_matrix()
        np.testing.assert_allclose(dense @ x, rhs, rtol=0.0,
                                   atol=1e-9 * np.max(np.abs(rhs)))
        np.testing.assert_allclose(jac.apply_values(x), dense @ x, rtol=0.0,
                                   atol=1e-9 * np.max(np.abs(rhs)))
