"""Shared fixtures: the default grid and the branch traces reused across files.

Branch traces are session-scoped because they are the most expensive objects
in the suite and several files assert different properties of the same curve.
"""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import fucik_branch
from fucik_branch.continuation import BranchSeed, trace_branch
from fucik_branch.grid import FLOAT_FORMAT, Field, Grid, inner_l2, norms
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


def count_calls_by_name(monkeypatch, name: str, counts: dict, key: str) -> None:
    """Count in counts[key] the calls of name through every fucik_branch
    module that binds it, found by scanning the package, so that no module
    that imports it escapes the count."""
    modules = [fucik_branch] + [importlib.import_module(f"fucik_branch.{info.name}")
                                for info in pkgutil.iter_modules(fucik_branch.__path__)]
    for module in modules:
        if name in vars(module):
            monkeypatch.setattr(module, name, counting(counts, key, vars(module)[name]))


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
        ratio = inner_l2(residual_original(u, params) - residual_original(w, params),
                         du) / denom
        if math.isfinite(ratio):
            worst = min(worst, ratio)
            violations += ratio <= 0.0
    return worst, violations


def reference_shot(grid: Grid, gamma: float, which: int, lam: float) -> list[float]:
    """The half-eigen shooting recurrence as a list of all n + 2 nodes u_0 .. u_{n+1}."""
    n = grid.n_interior
    h2 = grid.h ** 2
    c_pos = 2.0 - h2 * lam
    c_neg = c_pos + h2 * gamma
    u = [0.0, grid.h if which == 1 else -grid.h]
    for _ in range(n):
        cur = u[-1]
        u.append((c_neg if cur < 0.0 else c_pos) * cur - u[-2])
    return u


def reference_half_eigen(grid: Grid, gamma: float, which: int, lam_lo: float,
                         lam_hi: float) -> tuple[float, np.ndarray]:
    """Discrete half-eigenpair by bisecting the last entry of full list shots
    to adjacent doubles; returns lambda and the L2-normalized interior shot."""
    side = math.copysign(1.0, reference_shot(grid, gamma, which, lam_lo)[-1])
    lo, hi = lam_lo, lam_hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if side * reference_shot(grid, gamma, which, mid)[-1] > 0.0:
            lo = mid
        else:
            hi = mid
    vec = np.array(reference_shot(grid, gamma, which, mid)[1:-1])
    return mid, vec / math.sqrt(grid.h * float(np.dot(vec, vec)))


def reference_cell(x) -> str:
    """One CSV table cell: bools as 1/0, integers exact, the rest FLOAT_FORMAT."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return FLOAT_FORMAT % float(x)


def reference_table_csv(header: list[str], rows: list[list]) -> str:
    """A CSV table formatted cell by cell."""
    lines = [",".join(header)]
    lines.extend(",".join(reference_cell(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def branch_p3_w1():
    return trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=3.0))


@pytest.fixture(scope="session")
def branch_p3_w2():
    return trace_branch(BranchSeed(k=2, which=2, gamma=0.5, p=3.0))


@pytest.fixture(scope="session")
def branch_p15():
    return trace_branch(BranchSeed(k=2, which=1, gamma=0.5, p=1.5))
