"""Mesh refinement of a p > 2 branch: second-order convergence in h."""

import math

import numpy as np
import pytest

from fucik_branch.config import SolverConfig
from fucik_branch.continuation import BranchSeed, trace_branch
from fucik_branch.grid import Grid

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
