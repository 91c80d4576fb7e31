"""fucik-branch benchmark: three workloads, end-to-end rates, traced per-layer breakdown.

    python3 perfbench/run.py --workload branch-p3 --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src in this
process, with BLAS held to one thread. A run sets up several times, then
repeats whole rounds of its workload's operations until --seconds have
passed, checks every output against perfbench/oracle.py, and prints one JSON
line last: correct, attempted, failed and the metrics. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics derived from the traced rounds' spans. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# BLAS threads change both the timing and the summation order of the dense
# corrector solve (and with it the p = 1.5 paths); pin them before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

LENGTH = math.pi
GAMMA = 0.5
SETUPS = 21
# A trace point's residual may exceed the corrector's own tolerance only by
# round-off between two summation orders of the same lumped residual.
RESIDUAL_SLACK = 2.0
SOLVE_TOL = 1e-7            # H^1_0 error of a manufactured solve
HALFEIG_RESIDUAL_TOL = 1e-8
H2_CONST = 0.25             # |lambda_h - lambda| <= H2_CONST * h^2 * lambda^2

# Seconds the reference kernel takes on an idle host of the kind the figures
# were tuned on; timings are reported at that host speed (see HostSpeed).
REFERENCE_S = 0.012

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "branch.points_per_s": "points/s",
    "halfeig.pair_s": "s",
    "fucik.points_per_s": "rows/s",
    "monotone.solves_per_s": "solves/s",
    "verify_s": "s",
}


# ----------------------------------------------------------------- workloads

@dataclass(frozen=True)
class BranchOp:
    p: float
    n: int
    k: int
    which: int


@dataclass(frozen=True)
class HalfeigOp:
    n: int
    k: int
    gamma: float


@dataclass(frozen=True)
class FucikOp:
    lambda_max: float
    samples: int


@dataclass(frozen=True, eq=False)
class SolveOp:
    p: float
    n: int
    f: np.ndarray           # data built by the oracle from the exact solution
    u0: np.ndarray
    exact: np.ndarray


@dataclass(frozen=True)
class VerifyOp:
    seed: int


def _smooth_field(rng: np.random.Generator, n: int, modes: int = 6) -> np.ndarray:
    x = oracle.nodes(LENGTH, n)
    coef = rng.standard_normal(modes) / np.arange(1, modes + 1) ** 2
    return sum(c * np.sin((j + 1) * math.pi * x / LENGTH) for j, c in enumerate(coef))


def _scaled(u: np.ndarray, n: int, norm: float) -> np.ndarray:
    return u * (norm / oracle.h10(u, oracle.mesh_width(LENGTH, n)))


def _solves(rng: np.random.Generator, p: float, n: int, count: int) -> list[SolveOp]:
    """Manufactured solves: f = M(u*) from the oracle, random smooth u* and start.

    p > 2 solves the whole-space monotone equation; 1 < p < 2 the rescaled one,
    with u* and the start well inside the coercivity ball (radius 0.5 at
    these meshes), so no seed leaves the solver's domain.
    """
    h = oracle.mesh_width(LENGTH, n)
    ops = []
    for _ in range(count):
        if p > 2.0:
            exact = _scaled(_smooth_field(rng, n), n, rng.uniform(0.5, 2.0))
            u0 = _scaled(_smooth_field(rng, n), n, rng.uniform(0.5, 2.0))
            f = oracle.residual(exact, h, p, GAMMA, 0.0)
        else:
            exact = _scaled(_smooth_field(rng, n), n, rng.uniform(0.05, 0.2))
            u0 = _scaled(_smooth_field(rng, n), n, rng.uniform(0.01, 0.2))
            f = oracle.residual(exact, h, p, GAMMA, 0.0,
                                oracle.rescaled_coeff(exact, h, p))
        ops.append(SolveOp(p=p, n=n, f=f, u0=u0, exact=exact))
    return ops


def build_ops(workload: str, seed: int) -> list:
    """The operations of one round, in no particular order.

    Each workload pairs the work it is built around with a few repeats of
    short probes of the other operations, so that every end-to-end metric is
    measured on every workload and its probes are spread over the whole run.
    Only the solves and verify take their inputs from the seed; the branch,
    halfeig and fucik inputs are the fixed cases named in README.md.
    """
    rng = np.random.default_rng([seed, 7])
    verify = VerifyOp(seed=seed)

    # a short sweep four times per round, so that its rate is a median of
    # a dozen samples; kernels runs the default sweep instead
    fucik = 4 * [FucikOp(lambda_max=30.0, samples=50)]

    def probes(n: int, halfeig_ks: tuple[int, ...]) -> list:
        # fresh solves in every repeat: iteration counts vary with the seed's
        # u*, so more distinct solves keep the solve rate steady across seeds;
        # verify twice, as one verify spans several swings of the host's speed
        return ([HalfeigOp(n=n, k=k, gamma=GAMMA) for k in halfeig_ks]
                + _solves(rng, 3.0, n, 2) + _solves(rng, 1.5, n, 2) + 2 * [verify])

    if workload == "branch-p3":
        main = [BranchOp(p=3.0, n=399, k=k, which=w) for k in (2, 3) for w in (1, 2)]
        return main + fucik + probes(399, (2, 3)) + probes(399, (2, 3))
    if workload == "branch-p15":
        main = [BranchOp(p=1.5, n=n, k=2, which=w) for n in (199, 399) for w in (1, 2)]
        return main + fucik + probes(399, (2,)) + probes(399, (2,)) + probes(399, (2,))
    if workload == "kernels":
        n = 799
        return ([HalfeigOp(n=n, k=k, gamma=oracle.gamma_max(LENGTH, n, k) / 4.0)
                 for k in range(2, 6)]
                + [FucikOp(lambda_max=30.0, samples=200)]
                + _solves(rng, 3.0, n, 8) + _solves(rng, 1.5, n, 8) + 2 * [verify]
                + [BranchOp(p=3.0, n=199, k=2, which=1)])
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("branch-p3", "branch-p15", "kernels")


# --------------------------------------------------------------- host speed

class HostSpeed:
    """Times a fixed reference kernel before every operation and set-up.

    The benchmark shares a 2-core virtual machine with other tenants, and the
    speed of the host swings by up to 2x within seconds, moving every timing
    taken in that stretch together. The kernel mixes the program's two kinds
    of work, mostly a Python loop over numpy scalars (a Thomas elimination,
    as in the tridiagonal layer and the shooting) and one dense LAPACK solve
    of order 400 (as in the bordered corrector); it is benchmark code, so no
    change to the program moves it. `seconds` converts one timing to the
    host speed at which the kernel takes REFERENCE_S, using the kernel runs
    just before and just after it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.dense = 4.0 * np.eye(400) + 0.01 * rng.standard_normal((400, 400))
        self.rhs = np.ones(400)
        self.diag, self.off = np.full(200, 2.0), np.full(199, -1.0)
        self.starts: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        np.linalg.solve(self.dense, self.rhs)
        diag, off, n = self.diag, self.off, self.diag.size
        for _ in range(36):
            cp, dp = np.empty(n), np.empty(n)
            cp[0], dp[0] = off[0] / diag[0], 1.0 / diag[0]
            for i in range(1, n):
                piv = diag[i] - off[i - 1] * cp[i - 1]
                if i < n - 1:
                    cp[i] = off[i] / piv
                dp[i] = (1.0 - off[i - 1] * dp[i - 1]) / piv
        self.starts.append(t0)
        self.samples.append(time.perf_counter() - t0)

    def seconds(self, t0: float, t1: float) -> float:
        """The interval t0..t1 at reference host speed."""
        before = bisect.bisect_right(self.starts, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        local = [self.samples[i] for i in (before, after) if 0 <= i < len(self.samples)]
        return (t1 - t0) * REFERENCE_S / statistics.fmean(local)

    def median(self) -> float:
        return statistics.median(self.samples)


def wall(t0: float, t1: float) -> float:
    return t1 - t0


# ----------------------------------------------------------- program access

def import_program():
    """Import fucik_branch afresh from ./src; return the package."""
    for name in [m for m in sys.modules if m == "fucik_branch" or m.startswith("fucik_branch.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("fucik_branch")
    importlib.import_module("fucik_branch.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "fucik_branch").resolve():
        raise ImportError(f"fucik_branch imported from {pkg.__file__}, not {SRC}")
    return pkg


class BranchCapture:
    """Stands in for cli.trace_branch: keeps each Branch and when its trace ran."""

    def __init__(self, inner):
        self.inner = inner
        self.items: list[tuple[object, int, float, float]] = []

    def __call__(self, seed, grid=None, config=None):
        t0 = time.perf_counter()
        branch = self.inner(seed, grid, config)
        self.items.append((branch, grid.n_interior, t0, time.perf_counter()))
        return branch


@dataclass
class Tally:
    """Operation counts, check results and timings of a set of rounds.

    timings maps (kind, op) to one (start, end, work) triple per execution,
    work being accepted points, rows or 1. An op repeated within or across rounds
    collects all its executions under one key, and so do equal ops (the
    frozen dataclasses compare by their inputs; SolveOp by identity).
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(what)
        if not ok:
            print(f"check failed: {what}", file=sys.stderr)

    def time(self, kind: str, op, t0: float, t1: float, work: float = 1.0) -> None:
        self.timings.setdefault((kind, op), []).append((t0, t1, work))

    def work(self, kind: str) -> float:
        return sum(w for (k, _), runs in self.timings.items() if k == kind for *_, w in runs)

    def rate(self, kind: str, seconds) -> float:
        """Work per second, each distinct op counted once at its median time.

        Taking each op's median over its repeats keeps one slow stretch of
        a shared machine from moving the figure, and summing over distinct
        ops keeps a long trace's weight proportional to its work.
        """
        runs = [r for (k, _), r in self.timings.items() if k == kind]
        secs = sum(statistics.median(seconds(t0, t1) for t0, t1, _ in r) for r in runs)
        work = sum(statistics.median(w for *_, w in r) for r in runs)
        return work / secs if secs > 0.0 else 0.0

    def median_time(self, kind: str, seconds) -> float:
        secs = [seconds(t0, t1) for (k, _), r in self.timings.items() if k == kind
                for t0, t1, _ in r]
        return statistics.median(secs) if secs else 0.0


class Runner:
    def __init__(self, pkg, workload: str):
        self.pkg = pkg
        self.cli = pkg.cli
        self.capture = BranchCapture(pkg.continuation.trace_branch)
        self.cli.trace_branch = self.capture
        self.out = OUT / workload
        self.out.mkdir(parents=True, exist_ok=True)

    def cli_run(self, argv: list[str], where: str) -> tuple[int, tuple[float, float], Path]:
        outdir = self.out / where
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.run(argv + ["--output-dir", str(outdir)])
        return rc, (t0, time.perf_counter()), outdir

    def run(self, op, t: Tally) -> None:
        """Run one operation; an exception (a SolverError, say) counts it as failed."""
        before = (t.attempted, t.failed)
        try:
            getattr(self, "op_" + type(op).__name__)(op, t)
        except Exception:  # keep measuring the other operations; report this one
            traceback.print_exc()
            t.attempted, t.failed = before[0] + 1, before[1] + 1

    # One operation per trace.
    def op_BranchOp(self, op: BranchOp, t: Tally) -> None:
        self.capture.items.clear()
        rc, _, outdir = self.cli_run(
            ["branch", "--p", repr(op.p), "--k", str(op.k), "--which", str(op.which),
             "--gamma", repr(GAMMA), "--steps", "200", "--grid-n", str(op.n)], "branch")
        t.attempted += 1
        if rc != 0 or len(self.capture.items) != 1:
            t.failed += 1
            return
        branch, n, t0, t1 = self.capture.items[0]
        summary = json.loads((outdir / "branches.json").read_text())
        t.check([s["points"] for s in summary] == [len(branch.points)],
                "branches.json point count differs from the traced branch")
        t.time("branch", op, t0, t1, len(branch.points))
        if branch.termination.kind == "CorrectorFailure":
            t.failed += 1
        check_branch(branch, n, t)

    # One operation per subcommand run.
    def op_HalfeigOp(self, op: HalfeigOp, t: Tally) -> None:
        rc, span, outdir = self.cli_run(
            ["halfeig", "--k", str(op.k), "--gamma", repr(op.gamma),
             "--grid-n", str(op.n)], "halfeig")
        t.attempted += 1
        if rc != 0:
            t.failed += 1
            return
        t.time("halfeig", op, *span)
        check_halfeig(op, outdir, t)

    # One operation per output row.
    def op_FucikOp(self, op: FucikOp, t: Tally) -> None:
        rc, span, outdir = self.cli_run(
            ["fucik", "--lambda-max", repr(op.lambda_max), "--samples",
             str(op.samples)], "fucik")
        if rc != 0:
            t.attempted += 1
            t.failed += 1
            return
        rows = np.loadtxt(outdir / "fucik.csv", delimiter=",", skiprows=1, ndmin=2)
        t.attempted += len(rows)
        t.time("fucik", op, *span, len(rows))
        t.failed += check_fucik(op, rows, t)

    # One operation per solve.
    def op_SolveOp(self, op: SolveOp, t: Tally) -> None:
        pkg = self.pkg
        grid = pkg.Grid(n_interior=op.n, length=LENGTH)
        params = pkg.ProblemParams(p=op.p, gamma=GAMMA, lam=0.0)
        f = pkg.Field(grid, op.f)
        u0 = pkg.Field(grid, op.u0)
        t0 = time.perf_counter()
        if op.p > 2.0:
            report = pkg.monotone.solve_monotone(f, params, u0=u0)
        else:
            radius = pkg.monotone.default_ball_radius(params, grid=grid)
            report = pkg.monotone.solve_monotone_ball(f, params, radius=radius, u0=u0)
        t.attempted += 1
        t.time("solve", op, t0, time.perf_counter())
        err = oracle.h10(report.solution.values - op.exact, grid.h)
        t.check(err <= SOLVE_TOL, f"p={op.p} manufactured solve misses u* by {err:.3e} in H1_0")

    # One operation per subcommand run.
    def op_VerifyOp(self, op: VerifyOp, t: Tally) -> None:
        p = 3.0
        rc, span, outdir = self.cli_run(
            ["verify", "--p", repr(p), "--gamma", repr(GAMMA), "--seed", str(op.seed)],
            "verify")
        t.attempted += 1
        if rc != 0:
            t.failed += 1
            return
        t.time("verify", op, *span)
        rep = json.loads((outdir / "verify.json").read_text())
        floor = 2.0 ** (2.0 - p)
        t.check(rep["c1_floor"] == floor, "verify reports the wrong c1 floor")
        # antipodal samples attain the floor exactly, up to the round-off the
        # program itself allows (relative 1e-9)
        t.check(rep["c1_emp"] >= floor * (1.0 - 1e-9),
                f"verify c1_emp {rep['c1_emp']!r} below 2^(2-p)")
        t.check(rep["violations"] == 0 and rep["monotonicity_violations"] == 0
                and rep["monotonicity_min"] > 0.0, "verify reports violations")


# ------------------------------------------------------------------- checks

def check_branch(branch, n: int, t: Tally) -> None:
    seed = branch.seed
    h = oracle.mesh_width(LENGTH, n)
    label = f"p={seed.p} k={seed.k} which={seed.which} n={n}"
    worst = 0.0
    for pt in branch.points:
        r = oracle.traced_residual(pt.u.values, h, seed.p, seed.gamma, pt.lam)
        worst = max(worst, oracle.l2(r, h) / pt.corrector_tol)
    t.check(worst <= RESIDUAL_SLACK,
            f"{label}: point residual {worst:.3g} x its corrector tolerance")
    s = np.array([pt.s for pt in branch.points])
    t.check(bool(np.all(np.diff(s) > 0.0)), f"{label}: arclength not increasing")
    cont = oracle.continuum_half_eigenvalue(seed.k, seed.gamma, LENGTH, seed.which)
    t.check(abs(branch.lambda_seed - cont) <= H2_CONST * h * h * cont * cont,
            f"{label}: seed lambda {branch.lambda_seed!r} not O(h^2) from {cont!r}")
    if seed.p > 2.0:
        slope = scaling_slope(branch, n)
        t.check(0.8 <= slope <= 1.2, f"{label}: scaling slope {slope:.3f}")


def scaling_slope(branch, n: int, max_points: int = 25) -> float:
    """Log-log slope of |lambda - lambda_seed| against |(e_k, u)| near the seed."""
    h = oracle.mesh_width(LENGTH, n)
    ek = oracle.discrete_eigenvector(LENGTH, n, branch.seed.k)
    xs, ys = [], []
    for pt in branch.points[:max_points]:
        dev = abs(pt.lam - branch.lambda_seed)
        alpha = h * float(ek @ pt.u.values)
        if dev > 1e-13 and alpha != 0.0:
            xs.append(math.log(abs(alpha)))
            ys.append(math.log(dev))
    if len(xs) < 3:
        return math.nan
    return float(np.polyfit(xs, ys, 1)[0])


def check_halfeig(op: HalfeigOp, outdir: Path, t: Tally) -> None:
    h = oracle.mesh_width(LENGTH, op.n)
    rep = json.loads((outdir / "halfeig.json").read_text())
    lo = oracle.discrete_eigenvalue(LENGTH, op.n, op.k)
    hi = oracle.discrete_eigenvalue(LENGTH, op.n, op.k + 1)
    for which in (1, 2):
        label = f"halfeig n={op.n} k={op.k} which={which}"
        lam = rep[f"lambda{which}"]
        cont = oracle.continuum_half_eigenvalue(op.k, op.gamma, LENGTH, which)
        t.check(lo < lam < hi, f"{label}: {lam!r} outside ({lo!r}, {hi!r})")
        t.check(abs(lam - cont) <= H2_CONST * h * h * cont * cont,
                f"{label}: {lam!r} not O(h^2) from {cont!r}")
        data = np.loadtxt(outdir / f"halfeig_v{which}.csv", delimiter=",", skiprows=1)
        x, u = data[:, 0], data[:, 1]
        t.check(x.size == op.n + 2 and u[0] == 0.0 and u[-1] == 0.0
                and np.allclose(np.diff(x), h, rtol=1e-12, atol=0.0),
                f"{label}: eigenfunction file is not on the requested grid")
        v = u[1:-1]
        res = oracle.dual_norm(oracle.half_eigen_residual(v, h, op.gamma, lam), h)
        t.check(res <= HALFEIG_RESIDUAL_TOL, f"{label}: residual {res:.3e}")
        t.check(oracle.sign_changes(v) == op.k - 1,
                f"{label}: {oracle.sign_changes(v)} sign changes, expected {op.k - 1}")


def check_fucik(op: FucikOp, rows: np.ndarray, t: Tally) -> int:
    """Check the sweep against the enumeration; return the rows whose labels fail."""
    grid, lo, hi = oracle.fucik_sweep_grid(LENGTH, op.lambda_max, op.samples)
    expected = sorted((float(lp), lm) for lp in grid for lm in oracle.fucik_roots(float(lp), lo, hi, LENGTH))
    got = sorted((float(r[0]), float(r[1])) for r in rows)
    same = len(got) == len(expected) and all(
        a[0] == b[0] and abs(a[1] - b[1]) <= 1e-9 * b[1] for a, b in zip(got, expected))
    t.check(same, f"fucik: {len(got)} points, enumeration has {len(expected)} or values differ")
    return sum(not oracle.fucik_row_ok(r[0], r[1], int(r[2]), int(r[3]), LENGTH)
               for r in rows)


# -------------------------------------------------------------------- driver

def setup(workload: str, seed: int):
    t0 = time.perf_counter()
    pkg = import_program()
    ops = build_ops(workload, seed)
    return (t0, time.perf_counter()), pkg, ops


def run_round(runner: Runner, ops: list, order: np.ndarray, tally: Tally,
              host: HostSpeed) -> list[tuple[float, float]]:
    """Run one round; return when each operation started and ended."""
    spans = []
    for i in order:
        host.sample()
        t0 = time.perf_counter()
        runner.run(ops[i], tally)
        spans.append((t0, time.perf_counter()))
    return spans


def end_to_end(tally: Tally, setups: list[tuple[float, float]], seconds) -> dict[str, float]:
    """The end-to-end figures, each timing measured by seconds(start, end)."""
    return {
        "setup_s": statistics.median(seconds(t0, t1) for t0, t1 in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "branch.points_per_s": tally.rate("branch", seconds),
        "halfeig.pair_s": tally.median_time("halfeig", seconds),
        "fucik.points_per_s": tally.rate("fucik", seconds),
        "monotone.solves_per_s": tally.rate("solve", seconds),
        "verify_s": tally.median_time("verify", seconds),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fucik_branch" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'fucik_branch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    oracle.self_check()

    host = HostSpeed()
    setups = []
    for _ in range(SETUPS):
        host.sample()
        span, pkg, ops = setup(args.workload, args.seed)
        setups.append(span)
    runner = Runner(pkg, args.workload)
    rng = np.random.default_rng([args.seed, 11])

    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    traced = Tally()
    rounds = 0
    untraced_ops, traced_ops = [], []
    traced_wall = 0.0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        order = rng.permutation(len(ops))
        untraced_ops += run_round(runner, ops, order, tally, host)
        if tracer is not None:
            tracer.install(pkg)
            try:
                t0 = time.perf_counter()
                with tracer.span("bench.round"):
                    traced_ops += run_round(runner, ops, order, traced, host)
                traced_wall += time.perf_counter() - t0
            finally:
                tracer.uninstall()
        rounds += 1
    host.sample()  # the kernel run after the last operation

    problems = tally.problems + traced.problems
    correct = not problems
    for what in problems:
        print(f"INCORRECT: {what}")
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{tally.attempted} operations attempted, {tally.failed} failed")
    print(f"reference kernel: median {host.median() * 1e3:.3f} ms over "
          f"{len(host.samples)} samples. Wall-clock figures:")
    for name, value in end_to_end(tally, setups, wall).items():
        print(f"  {name:38s} {value:14.6g} {END_TO_END[name]}")
    if tracer is None:
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end(tally, setups, host.seconds).items()}
    else:
        spans = tracer.arrays()
        np.savez(OUT / f"spans-{args.workload}.npz", **spans)
        metrics, self_by_layer = tracing.layer_metrics(
            spans, rounds, traced.work("branch"), traced.work("solve"))
        # the operations' time per round at reference host speed, so that
        # a swing of the host's speed between the two rounds is no overhead
        traced_s = sum(host.seconds(*span) for span in traced_ops) / rounds
        untraced_s = sum(host.seconds(*span) for span in untraced_ops) / rounds
        metrics["trace.wall_s"] = (traced_s, "s")
        metrics["trace.untraced_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        print_layer_table(self_by_layer, traced_wall / rounds, traced_s, untraced_s,
                          end_to_end(tally, setups, host.seconds))
        # both halves of a traced run do the same operations
        correct = correct and (traced.attempted, traced.failed) == (tally.attempted, tally.failed)
    print("end-to-end, at reference host speed:" if tracer is None else "per layer:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def print_layer_table(self_by_layer: dict[str, float], wall: float, traced: float,
                      untraced: float, e2e: dict[str, float]) -> None:
    print("self time per traced round, by layer (wall clock):")
    total = sum(self_by_layer.values())
    for name, secs in sorted(self_by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {name:14s} {secs:10.4f} s  {100.0 * secs / wall:6.2f} %")
    print(f"  {'sum':14s} {total:10.4f} s  of traced wall {wall:.4f} s")
    print(f"operations per round at reference host speed: traced {traced:.4f} s, "
          f"untraced {untraced:.4f} s, tracing overhead {traced - untraced:+.4f} s")
    print("end-to-end (untraced rounds, at reference host speed):")
    for name, value in e2e.items():
        print(f"  {name:38s} {value:14.6g} {END_TO_END[name]}")


if __name__ == "__main__":
    sys.exit(main())
