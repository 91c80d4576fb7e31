"""Mesh refinement of the branches: second-order convergence in h."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fucik_branch.config import SolverConfig
from fucik_branch.continuation import BranchSeed, trace_branch
from fucik_branch.grid import Grid

from ladder import matched_lambdas, observed_orders, richardson

MESHES = (199, 399, 799, 1599, 3199)   # h halves from one mesh to the next
L2_LEVELS = (0.3, 1.0)


@pytest.fixture(scope="module")
def refined_quantities() -> np.ndarray:
    """Rows per mesh: the seed lambda, then lambda at each L2_LEVELS norm."""
    rows = []
    for n in MESHES:
        branch = trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=3.0),
                              Grid(n_interior=n), SolverConfig(max_steps=60))
        l2 = np.array([pt.l2 for pt in branch.points])
        lam = np.array([pt.lam for pt in branch.points])
        assert np.all(np.diff(l2) > 0.0)
        assert l2[0] < L2_LEVELS[0] and l2[-1] > L2_LEVELS[-1]
        rows.append([branch.lambda_seed] + [float(np.interp(x, l2, lam))
                                            for x in L2_LEVELS])
    return np.array(rows)


@pytest.mark.parametrize("column", range(1 + len(L2_LEVELS)),
                         ids=["seed"] + [f"l2={x}" for x in L2_LEVELS])
def test_p3_branch_converges_at_second_order(refined_quantities, column):
    q = refined_quantities[:, column]
    for a, b, c in zip(q, q[1:], q[2:]):
        order = math.log2(abs(a - b) / abs(b - c))
        assert 1.8 <= order <= 2.2


def _fake_branch(l2, lam):
    points = [SimpleNamespace(l2=x, lam=y) for x, y in zip(l2, lam)]
    return SimpleNamespace(points=points, seed="fake")


def test_matched_lambdas_reproduce_a_cubic():
    # the cubic through four neighbours is exact on a cubic, however the
    # points are spaced, and the norms span 5-95 % of the common range
    cubic = np.polynomial.Polynomial([2.0, -1.0, 0.5, 3.0])
    l2s = [np.linspace(0.0, 1.0, 30) ** 2, np.linspace(0.1, 1.2, 7)]
    norms, lams = matched_lambdas([_fake_branch(l2, cubic(l2)) for l2 in l2s])
    assert norms == pytest.approx(np.linspace(0.145, 0.955, 12), rel=1e-14)
    assert lams == pytest.approx(np.array([cubic(norms)] * 2), rel=1e-12)


@pytest.mark.parametrize("l2", [[0.1, 0.2, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3], [0.1, 0.3, 0.2, 0.4]])
def test_matched_lambdas_refuse_a_norm_that_does_not_increase(l2):
    good = _fake_branch(np.linspace(0.0, 1.0, 9), np.zeros(9))
    with pytest.raises(ValueError, match="does not increase"):
        matched_lambdas([good, _fake_branch(l2, np.zeros(len(l2)))])


@pytest.fixture(scope="module", params=[3.0, 1.5])
def ladder_lambdas(request) -> np.ndarray:
    """Lambda at the matched norms of the 200-step traces at n = 199, 399 and
    799 (k = 2, gamma = 0.5, which = 1), one row per mesh. The p = 1.5 trace
    at n = 399 ends in CorrectorFailure after 166 points, which shortens the
    common range."""
    branches = [trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=request.param),
                             Grid(n_interior=n)) for n in (199, 399, 799)]
    return matched_lambdas(branches)[1]


def test_branch_lambda_converges_at_second_order_at_matched_norms(ladder_lambdas):
    orders = observed_orders(ladder_lambdas)
    assert orders.shape == (12,)
    assert np.all((1.8 <= orders) & (orders <= 2.2)), orders


def test_richardson_removes_an_h_squared_error():
    h = np.array([0.4, 0.2, 0.1])
    lams = 7.0 + 3.0 * h[:, None] ** 2 * np.array([1.0, -2.0])
    assert richardson(lams[0], lams[1]) == pytest.approx([7.0, 7.0], rel=1e-14)
    assert richardson(lams[1], lams[2]) == pytest.approx([7.0, 7.0], rel=1e-14)


def test_richardson_values_agree_across_the_ladder(ladder_lambdas):
    # the extrapolations from (199, 399) and (399, 799) differ by far less
    # than the finest step's own change; measured up to 3.6 % of it for
    # p = 3 and 1.7 % for p = 1.5
    coarse, mid, fine = ladder_lambdas
    gap = np.abs(richardson(mid, fine) - richardson(coarse, mid))
    assert np.all(gap <= 0.1 * np.abs(fine - mid)), gap / np.abs(fine - mid)
