"""Traces on a mesh ladder compared at matched L2 norms.

h = L/(n + 1), so n = 199, 399 and 799 halve h exactly. matched_lambdas
gives lambda of each trace at the same L2 norms of the traced variable, and
observed_orders turns three rungs into log2 |lam_h - lam_h/2| / |lam_h/2 -
lam_h/4|, which is 2 for the second-order scheme (Roache, Verification and
Validation in Computational Science and Engineering, 1998), and richardson
turns two rungs into lam_h + (lam_h - lam_2h)/3, which cancels the h^2 term
of the error (Richardson, Phil. Trans. R. Soc. A 210, 1911). No package code
uses these, so they live under tests/.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from fucik_branch.continuation import Branch

MATCHED_NORMS = 12
# the matched norms span this fraction of the traces' common L2 range
MATCHED_SPAN = (0.05, 0.95)


def _cubic_at(x: float, xs: np.ndarray, ys: np.ndarray) -> float:
    """The cubic through the four points (xs, ys), evaluated at x (Lagrange form)."""
    return sum(y * math.prod((x - xk) / (xj - xk) for k, xk in enumerate(xs) if k != j)
               for j, (xj, y) in enumerate(zip(xs, ys)))


def matched_lambdas(branches: Sequence[Branch]) -> tuple[np.ndarray, np.ndarray]:
    """The matched L2 norms, and lambda of each branch at them (one row per branch).

    The norms are MATCHED_NORMS evenly spaced values over MATCHED_SPAN of
    the range that every branch covers, and each lambda comes from the cubic
    through the four points around its norm. A branch whose L2 norm does not
    increase from point to point is refused with ValueError: a norm would
    not fix one of its points.
    """
    curves = []
    for branch in branches:
        l2 = np.array([pt.l2 for pt in branch.points])
        lam = np.array([pt.lam for pt in branch.points])
        if l2.size < 4 or not np.all(np.diff(l2) > 0.0):
            raise ValueError(f"the L2 norm of the trace from {branch.seed} "
                             f"does not increase over four points or more")
        curves.append((l2, lam))
    lo = max(l2[0] for l2, _ in curves)
    hi = min(l2[-1] for l2, _ in curves)
    if not lo < hi:
        raise ValueError("the traces share no range of L2 norms")
    norms = lo + (hi - lo) * np.linspace(*MATCHED_SPAN, MATCHED_NORMS)
    rows = []
    for l2, lam in curves:
        # the two points below each norm and the two from it up, kept inside
        start = np.clip(np.searchsorted(l2, norms) - 2, 0, l2.size - 4)
        rows.append([_cubic_at(x, l2[i:i + 4], lam[i:i + 4]) for x, i in zip(norms, start)])
    return norms, np.array(rows)


def observed_orders(lams: np.ndarray) -> np.ndarray:
    """log2 |lam_h - lam_h/2| / |lam_h/2 - lam_h/4| per matched norm, from
    the rows of three rungs whose h halves from one to the next."""
    coarse, mid, fine = lams
    return np.log2(np.abs(coarse - mid) / np.abs(mid - fine))


def richardson(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """lam_h + (lam_h - lam_2h)/3 per matched norm, from the rows of two rungs
    whose h halves from coarse (2h) to fine (h)."""
    return fine + (fine - coarse) / 3.0
