"""Solver and continuation settings a caller varies."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances of the monotone solves, and the continuation's seed and budget.

    The monotone solves (solve_monotone, solve_monotone_ball, and
    newton_at_lambda through solve_monotone) stop when the dual-norm residual
    falls below tol_abs or below tol_rel times the dual norm of the data. A
    trace starts at seed amplitude alpha0 and takes at most max_steps points.
    The other limits are module constants: the step limits that the solves
    pass to monotone.newton, monotone._MAX_ITER and
    continuation._CORRECTOR_MAX_ITER, and continuation._CORRECTOR_TOL and _NORM_CAP.
    """

    tol_abs: float = 1e-9
    tol_rel: float = 1e-12

    # pseudo-arclength continuation
    alpha0: float = 1e-3
    max_steps: int = 200

    def __post_init__(self) -> None:
        for name in ("tol_abs", "tol_rel", "alpha0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (isinstance(self.max_steps, int) and not isinstance(self.max_steps, bool)
                and self.max_steps >= 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
