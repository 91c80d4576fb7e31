"""Termination census of the branch tracer over p, k, gamma and side.

    python3 tests/census.py --n 199 --out census-199.csv
    python3 tests/census.py --n 199 --out new-199.csv --against census-199.csv

Traces p in {1.2, 1.5, 1.8, 2.5, 3, 4} x k in {2, 3, 4} x gamma in
{0, 0.25, 0.5, 0.9} gamma_max(k), both sides when gamma > 0 (126 traces),
on a grid of n interior nodes with 200 steps each. Writes one CSV row
per trace: termination and detail, point count, final (lambda, ||u||_2),
arclength, the Newton steps of the trace's corrector calls summed over its
points, the corrector calls that failed (each halves the step and its work
is lost), seconds, and for even k the mirror defect against the other side.
Prints per-(p < 2, p > 2) tallies of the terminations, the Newton steps and
failed corrector calls per point and the even-k mirror pairs that end
differently, then, on a line of its own, the milliseconds per accepted point
of each class from the seconds column. With --against, a CSV of an earlier
run at the same n, that line gives the earlier run's figures beside them,
and the census also prints the rows whose termination, failure detail, point
count or final (lambda, ||u||_2, arclength) changed, the largest relative
change of those three among the changed rows that keep their termination and
point count, and the diff of the tallies, and exits with status 1 when any
row changed (0 otherwise), so that it serves as a pass/fail check; timings
never change the exit status. An earlier CSV without the Newton-step or
failed-call column is read as well; the tally diff then leaves that figure
out. Needs only numpy; it imports the package from the src/ next to this
directory. Pytest does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import difflib
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fucik_branch import continuation  # noqa: E402
from fucik_branch.continuation import BranchSeed, trace_branch  # noqa: E402
from fucik_branch.grid import Grid  # noqa: E402
from fucik_branch.halfeig import gamma_window  # noqa: E402
from fucik_branch.monotone import SolverError  # noqa: E402

PS = (1.2, 1.5, 1.8, 2.5, 3.0, 4.0)
KS = (2, 3, 4)
GAMMA_FRACTIONS = (0.0, 0.25, 0.5, 0.9)
STEPS = 200
FIELDS = ("p", "k", "gamma_frac", "which", "termination", "detail", "points",
          "lam", "l2", "arclength", "newton_steps", "failed_calls", "seconds",
          "mirror_defect")
PRINTED = ("p", "k", "gamma_frac", "which", "termination", "points", "lam", "l2",
           "arclength", "newton_steps", "failed_calls", "seconds")
KEY = ("p", "k", "gamma_frac", "which")
# what --against compares; seconds always differ, mirror_defect follows from
# the points, and the work figures (Newton steps, failed calls) are tallied
COMPARED = ("termination", "detail", "points", "lam", "l2", "arclength")
# the final values whose relative change is reported for rows that keep their
# termination and point count
DRIFTED = ("lam", "l2", "arclength")
# the two classes the tallies and timings are split into
CLASSES = (("p<2", lambda p: p < 2.0), ("p>2", lambda p: p > 2.0))
TYPES = {"p": float, "k": int, "gamma_frac": float, "which": int, "points": int,
         "lam": float, "l2": float, "arclength": float, "newton_steps": int,
         "failed_calls": int, "seconds": float}


def mirror_defect(first, second) -> float:
    """Largest relative gap, over the points both traces share, between the
    first trace and the second reflected by i -> n + 1 - i."""
    worst = 0.0
    for a, b in zip(first.points, second.points):
        scale = max(float(np.max(np.abs(a.u.values))), 1e-300)
        worst = max(worst, abs(a.lam - b.lam) / abs(a.lam),
                    float(np.max(np.abs(a.u.values - b.u.values[::-1]))) / scale)
    return worst


@contextlib.contextmanager
def failed_corrector_calls():
    """Count, in the yielded list's one entry, the continuation._corrector
    calls that raise while the block runs."""
    failed = [0]
    corrector = continuation._corrector

    def counted(*args):
        try:
            return corrector(*args)
        except SolverError:
            failed[0] += 1
            raise

    continuation._corrector = counted
    try:
        yield failed
    finally:
        continuation._corrector = corrector


def trace_row(grid: Grid, max_steps: int, p: float, k: int,
              frac: float, which: int) -> tuple[dict, object]:
    gamma = frac * gamma_window(grid, k)
    row = {"p": p, "k": k, "gamma_frac": frac, "which": which, "mirror_defect": ""}
    start = time.perf_counter()
    with failed_corrector_calls() as failed:
        try:
            branch = trace_branch(BranchSeed(k=k, which=which, gamma=gamma, p=p),
                                  grid, max_steps)
        except SolverError as exc:
            row.update(termination="SeedFailure", detail=str(exc), points=0,
                       lam=math.nan, l2=math.nan, arclength=math.nan, newton_steps=0,
                       failed_calls=failed[0], seconds=time.perf_counter() - start)
            return row, None
    last = branch.points[-1]
    row.update(termination=branch.termination.kind,
               detail=branch.termination.detail,
               points=len(branch.points), lam=last.lam, l2=last.l2,
               arclength=last.s,
               newton_steps=sum(pt.iterations for pt in branch.points),
               failed_calls=failed[0], seconds=time.perf_counter() - start)
    return row, branch


def ends_differently(a: dict, b: dict) -> bool:
    return (a["termination"], a["points"], f"{a['lam']:.4f}", f"{a['l2']:.4f}") \
        != (b["termination"], b["points"], f"{b['lam']:.4f}", f"{b['l2']:.4f}")


def tally(rows: list[dict], steps: bool = True, failed: bool = True) -> list[str]:
    """Per-(p < 2, p > 2) lines: terminations and, with steps, Newton steps
    per point and, with failed, failed corrector calls per point; the p of
    the terminations other than MaxSteps; and the even-k mirror pairs that
    end differently."""
    sides = collections.defaultdict(list)
    for r in rows:
        if r["k"] % 2 == 0:
            sides[r["p"], r["k"], r["gamma_frac"]].append(r)
    lines = []
    for cls, pick in CLASSES:
        sel = [r for r in rows if pick(r["p"])]
        kinds = collections.Counter(r["termination"] for r in sel)
        line = f"{cls}: {len(sel)} traces: " \
            + ", ".join(f"{kind} {cnt}" for kind, cnt in sorted(kinds.items()))
        points = sum(r["points"] for r in sel)
        if steps:
            taken = sum(r["newton_steps"] for r in sel)
            line += f"; {taken / points:.3f} Newton steps per point ({taken}/{points})"
        if failed:
            lost = sum(r["failed_calls"] for r in sel)
            line += f"; {lost / points:.3f} failed corrector calls per point " \
                f"({lost}/{points})"
        lines.append(line)
        others = collections.Counter((r["p"], r["termination"]) for r in sel
                                     if r["termination"] != "MaxSteps")
        for (p, kind), cnt in sorted(others.items()):
            lines.append(f"    p = {p}: {kind} {cnt}")
        pairs = [pair for (p, _, _), pair in sides.items() if pick(p) and len(pair) == 2]
        lines.append(f"    even-k mirror pairs that end differently: "
                     f"{sum(ends_differently(*pair) for pair in pairs)}/{len(pairs)}")
    return lines


def point_times(rows: list[dict], before: list[dict] | None = None) -> str:
    """Milliseconds per accepted point of each class, the traces' seconds
    summed over their points, each with before's figure beside it if given."""
    def ms(sel: list[dict]) -> str:
        points = sum(r["points"] for r in sel)
        return f"{1e3 * sum(r['seconds'] for r in sel) / points:.3f}" if points else "-"

    parts = []
    for cls, pick in CLASSES:
        part = f"{cls} {ms([r for r in rows if pick(r['p'])])}"
        if before is not None:
            part += f" (against {ms([r for r in before if pick(r['p'])])})"
        parts.append(part)
    return "ms per accepted point: " + ", ".join(parts)


def read_rows(path: Path) -> list[dict]:
    """The rows of a census CSV, typed as a run makes them."""
    with path.open(newline="") as fh:
        return [{f: TYPES.get(f, str)(v) for f, v in row.items()}
                for row in csv.DictReader(fh)]


def changed_rows(before: list[dict], after: list[dict]) -> list[tuple[dict, dict | None]]:
    """(row, earlier row) for each row of after whose COMPARED fields differ
    from the earlier row with its KEY, or that has none; NaN equals NaN."""
    earlier = {tuple(r[f] for f in KEY): r for r in before}

    def same(a, b) -> bool:
        return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))

    out = []
    for row in after:
        old = earlier.get(tuple(row[f] for f in KEY))
        if old is None or not all(same(row[f], old[f]) for f in COMPARED):
            out.append((row, old))
    return out


def largest_drift(changed: list[tuple[dict, dict | None]]) -> tuple[int, dict]:
    """How many changed rows keep their termination and point count, and
    the largest relative change of each DRIFTED value among them."""
    kept = [(row, old) for row, old in changed if old is not None
            and (row["termination"], row["points"]) == (old["termination"], old["points"])]
    return len(kept), {f: max((abs(row[f] - old[f]) / max(abs(old[f]), 1e-300)
                               for row, old in kept), default=0.0)
                       for f in DRIFTED}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    ap.add_argument("--n", type=int, default=199, help="interior nodes")
    ap.add_argument("--out", type=Path, required=True, help="CSV file to write")
    ap.add_argument("--against", type=Path,
                    help="CSV of an earlier run at the same n to compare with")
    args = ap.parse_args(argv)
    grid = Grid(n_interior=args.n)
    before = read_rows(args.against) if args.against else None

    rows = []
    for p in PS:
        for k in KS:
            for frac in GAMMA_FRACTIONS:
                sides = [trace_row(grid, STEPS, p, k, frac, which)
                         for which in ((1, 2) if frac > 0.0 else (1,))]
                if len(sides) == 2 and k % 2 == 0:
                    (first, b1), (second, b2) = sides
                    if b1 is not None and b2 is not None:
                        first["mirror_defect"] = second["mirror_defect"] = \
                            mirror_defect(b1, b2)
                for row, _ in sides:
                    rows.append(row)
                    print(" ".join(f"{row[f]:.6g}" if isinstance(row[f], float)
                                   else str(row[f]) for f in PRINTED), flush=True)

    with args.out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)

    print(f"\ncensus at n = {args.n}, {STEPS} steps, {len(rows)} traces, "
          f"{sum(r['seconds'] for r in rows):.1f} s")
    print("\n".join(tally(rows)))
    print(point_times(rows, before))
    if before is not None:
        changed = changed_rows(before, rows)
        print(f"\nagainst {args.against}: {len(changed)} of {len(rows)} rows changed")
        for row, old in changed:
            print(" ".join(str(row[f]) for f in KEY) + ": "
                  + ("new row" if old is None else ", ".join(
                      f"{f} {old[f]!r} -> {row[f]!r}" for f in COMPARED
                      if old[f] != row[f])))
        kept, drift = largest_drift(changed)
        if kept:
            print(f"{kept} changed rows keep their termination and point count; "
                  "largest relative change: "
                  + ", ".join(f"{f} {drift[f]:.2g}" for f in DRIFTED))
        kept_figures = [all(f in r for r in before) for f in ("newton_steps", "failed_calls")]
        diff = list(difflib.unified_diff(tally(before, *kept_figures),
                                         tally(rows, *kept_figures),
                                         str(args.against),
                                         str(args.out), lineterm="", n=0))
        print("\n".join(diff) if diff else "tallies unchanged")
        return 1 if changed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
