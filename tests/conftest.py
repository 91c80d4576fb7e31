"""Shared fixtures: the default grid and the branch traces reused across files.

Branch traces are session-scoped because they are the most expensive objects
in the suite and several files assert different properties of the same curve.
"""

import math

import numpy as np
import pytest

from fucik_branch.config import SolverConfig
from fucik_branch.continuation import BranchSeed, trace_branch
from fucik_branch.grid import Field, Grid, inner_l2, norms
from fucik_branch.quasilinear import ProblemParams, residual_original


@pytest.fixture(scope="session")
def grid() -> Grid:
    return Grid()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def random_field(grid: Grid, rng: np.random.Generator, scale: float = 1.0) -> Field:
    return Field(grid, scale * rng.standard_normal(grid.n_interior))


def counting(counts: dict, key: str, fn):
    """fn, counting its calls in counts[key]."""
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def count_trials(monkeypatch, module, counts: dict) -> None:
    """Count the line-search trials of module.damped_step in counts["trials"]."""
    step = module.damped_step

    def counted_step(x, m0, directions, trial, slack=0.0):
        return step(x, m0, directions, counting(counts, "trials", trial), slack)

    monkeypatch.setattr(module, "damped_step", counted_step)


def reference_sweep(params: ProblemParams, n_pairs: int,
                    rng: np.random.Generator, grid: Grid) -> tuple[float, int]:
    """monotonicity_sweep written as a loop over pairs of Fields: the minimum
    ratio (Mu - Mw, u - w)_2 / ||u - w||_{1,p}^p and the nonpositive count."""
    op = ProblemParams(p=params.p, gamma=params.gamma, lam=0.0,
                       eps_reg=params.eps_reg)
    worst, violations = math.inf, 0
    for _ in range(n_pairs):
        u = Field(grid, 10.0 ** rng.uniform(-2.0, 2.0)
                  * rng.standard_normal(grid.n_interior))
        w = Field(grid, 10.0 ** rng.uniform(-2.0, 2.0)
                  * rng.standard_normal(grid.n_interior))
        du = u - w
        denom = norms(du, params.p).w1p ** params.p
        if denom == 0.0:
            continue
        ratio = inner_l2(residual_original(u, op) - residual_original(w, op),
                         du) / denom
        if math.isfinite(ratio):
            worst = min(worst, ratio)
            violations += ratio <= 0.0
    return worst, violations


@pytest.fixture(scope="session")
def branch_p3_w1():
    return trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=3.0))


@pytest.fixture(scope="session")
def branch_p3_w2():
    return trace_branch(BranchSeed(k=2, which=2, gamma=0.5, p=3.0))


@pytest.fixture(scope="session")
def branch_p15():
    return trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=1.5))


@pytest.fixture(scope="session")
def quiet_config() -> SolverConfig:
    return SolverConfig()
