"""Solver and continuation tuning knobs shared across modules."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, iteration limits and the continuation's seed and budget.

    The monotone solves (solve_monotone, solve_monotone_ball, and
    newton_at_lambda through solve_monotone) stop when the dual-norm residual
    falls below tol_abs or below tol_rel times the dual norm of the data, and
    take at most max_iter Newton steps. The
    continuation corrector stops when the L2 residual and the arclength
    defect both fall below corrector_tol * max(1, |lambda| ||u||_2). A trace
    starts at seed amplitude alpha0, takes at most max_steps points, and
    ends when the L2 norm exceeds norm_cap.
    """

    tol_abs: float = 1e-9
    tol_rel: float = 1e-12
    max_iter: int = 80

    # pseudo-arclength continuation
    alpha0: float = 1e-3
    max_steps: int = 200
    corrector_tol: float = 1e-10
    norm_cap: float = 1e2

    def __post_init__(self) -> None:
        for name in ("tol_abs", "tol_rel", "alpha0", "corrector_tol", "norm_cap"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("max_iter", "max_steps"):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool)
                    and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
