"""Command-line front end.

Subcommands: spectrum (discrete Laplacian eigenvalues), halfeig (split
eigenvalue pair for one k and gamma), fucik (curve sweep), branch
(pseudo-arclength traces plus gnuplot script), verify (sampled inequality
checks). A subcommand accepts only the options it reads. Options only parse:
the library object that takes a value checks it, and its ValueError is a
usage error; only --seed >= 0 and spectrum's --count in 1..--grid-n are
checked here. Each subcommand computes its results, then creates --output-dir
and writes them there with a run_meta.json recording the resolved parameters
and the package version. Exit codes: 0 success, 1 solver failure or failed
verification, 2 usage error, which leaves no output directory.

The parser is built once per process, on the first run(), and reused by
every later run. It holds the cmd_* functions as its defaults, so patching a
cmd_* function after that first run changes nothing; patch its callees
(trace_branch, split_eigenvalues, ...), which each cmd_* looks up when called.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from collections.abc import Sequence
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .continuation import (Branch, BranchSeed, localization_check,
                           scaling_slope, trace_branch)
from .grid import FLOAT_FORMAT, Grid, write_field_csv
from .halfeig import (check_split, fucik_curve_points, gamma_window,
                      split_eigenvalues)
from .monotone import (MIN_SAMPLES, SolverError, check_monotonicity_sweep,
                       check_vector_inequalities, monotonicity_sweep)
from .quasilinear import ProblemParams
from .spectrum import continuum_eigenvalue, eigenpair

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


def _cell_format(kind: type) -> str:
    """Format of a cell of this type: bools as 1/0, integers exact, the rest FLOAT_FORMAT."""
    if issubclass(kind, (int, np.integer, np.bool_)):
        return "%d"
    return FLOAT_FORMAT


def _write_table(base: Path, fmt: str, header: list[str],
                 rows: Sequence[Sequence]) -> Path:
    """Write rows as base.csv or base.json; a non-finite cell raises SolverError.

    CSV cells are formatted by type (_cell_format). Every table has one type
    per column, so the first row's types give the row format, and one % on
    it repeated and joined with newlines formats the table: the bytes
    formatting cell by cell gives, at a fraction of the interpreter work.
    """
    cells = list(chain.from_iterable(rows))
    if not np.isfinite(np.array(cells, dtype=float)).all():
        raise SolverError(f"non-finite value in output table {base.name}")
    if fmt == "csv":
        path = base.with_suffix(".csv")
        lines = [",".join(header)]
        if rows:
            row_format = ",".join(_cell_format(type(x)) for x in rows[0])
            lines.append("\n".join([row_format] * len(rows)) % tuple(cells))
        path.write_text("\n".join(lines) + "\n", newline="\n")
    else:
        path = base.with_suffix(".json")
        payload = [{key: (bool(x) if isinstance(x, (bool, np.bool_)) else
                          int(x) if isinstance(x, (int, np.integer)) else
                          float(x))
                    for key, x in zip(header, row)} for row in rows]
        _write_json(path, payload)
    return path


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n", newline="\n")


def _finite_or_none(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _output_dir(args: argparse.Namespace) -> Path:
    """Create --output-dir and write run_meta.json in it; return the directory.

    Subcommands call it only once their results exist."""
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    params = {key: value for key, value in vars(args).items()
              if key not in ("func", "command")}
    _write_json(outdir / "run_meta.json",
                {"command": args.command, "parameters": params,
                 "version": __version__})
    return outdir


def cmd_spectrum(args: argparse.Namespace, grid: Grid) -> int:
    if not 1 <= args.count <= grid.n_interior:
        raise ValueError(f"--count must be between 1 and --grid-n "
                         f"({grid.n_interior}), got {args.count}")
    rows = [[k, eigenpair(grid, k).value, continuum_eigenvalue(grid, k)]
            for k in range(1, args.count + 1)]
    path = _write_table(_output_dir(args) / "spectrum", args.format,
                        ["k", "lambda_discrete", "lambda_continuum"], rows)
    print(f"wrote {path}")
    return 0


def cmd_halfeig(args: argparse.Namespace, grid: Grid) -> int:
    pair = split_eigenvalues(grid, args.k, args.gamma)
    payload = {"k": pair.k, "gamma": pair.gamma, "lambda1": pair.lambda1,
               "lambda2": pair.lambda2, "eta": pair.eta,
               "gamma_max": gamma_window(grid, args.k)}
    outdir = _output_dir(args)
    _write_json(outdir / "halfeig.json", payload)
    write_field_csv(pair.v1, outdir / "halfeig_v1.csv")
    write_field_csv(pair.v2, outdir / "halfeig_v2.csv")
    print(f"lambda1={pair.lambda1:.12g} lambda2={pair.lambda2:.12g} "
          f"eta={pair.eta:.6g}")
    return 0


def cmd_fucik(args: argparse.Namespace) -> int:
    curves = fucik_curve_points(args.length, args.lambda_max, args.samples)
    rows = list(zip(curves.lambda_plus.tolist(), curves.lambda_minus.tolist(),
                    curves.n_plus.tolist(), curves.n_minus.tolist()))
    path = _write_table(_output_dir(args) / "fucik", args.format,
                        ["lambda_plus", "lambda_minus", "n_plus", "n_minus"],
                        rows)
    print(f"wrote {path} ({len(rows)} points)")
    return 0


def _branch_rows(branch: Branch) -> tuple[list[str], list[list]]:
    header = ["s", "lambda", "alpha", "l2", "h12", "in_cone"]
    transformed = branch.seed.p < 2.0
    if transformed:
        header.append("h12_original")
    rows = []
    for pt in branch.points:
        row = [pt.s, pt.lam, pt.alpha, pt.l2, pt.h12, pt.in_cone]
        if transformed:
            row.append(pt.h12_original if pt.h12_original is not None else 0.0)
        rows.append(row)
    return header, rows


def _branch_summary(branch: Branch, csv_name: str) -> dict:
    rho0, violations = localization_check(branch)
    end = branch.termination
    term: dict = {"kind": end.kind}
    if end.mu is not None:
        term["mu"] = end.mu
    if end.detail:
        term["detail"] = end.detail
    return {
        "seed": {"k": branch.seed.k, "which": branch.seed.which,
                 "gamma": branch.seed.gamma, "p": branch.seed.p},
        "file": csv_name,
        "points": len(branch.points),
        "lambda_seed": branch.lambda_seed,
        "eta": branch.eta,
        "termination": term,
        "empirical_rho0": _finite_or_none(rho0),
        "cone_violations": violations,
        "slope_fit": _finite_or_none(scaling_slope(branch)),
    }


def _gnuplot_script(entries: list[tuple[str, BranchSeed]]) -> str:
    lines = [
        "# Bifurcation diagram: lambda against the L2 norm of the traced variable.",
        "set datafile separator \",\"",
        "set xlabel \"lambda\"",
        "set ylabel \"||u||_2\"",
        "set key top left",
    ]
    plots = [f"  \"{name}\" every ::1 using 2:4 with lines "
             f"title \"k={seed.k}, branch {seed.which}\""
             for name, seed in entries]
    lines.append("plot \\")
    lines.append(", \\\n".join(plots))
    return "\n".join(lines) + "\n"


def cmd_branch(args: argparse.Namespace, grid: Grid) -> int:
    whichs = (1, 2) if args.which == "both" else (int(args.which),)
    seeds = [BranchSeed(k=k, which=w, gamma=args.gamma, p=args.p, alpha0=args.alpha0)
             for k in args.k for w in whichs]
    # every k is checked before the first trace runs
    for k in args.k:
        check_split(grid, k, args.gamma)
    branches = [trace_branch(seed, grid, args.steps) for seed in seeds]

    outdir = _output_dir(args)
    summaries = []
    entries = []
    for branch in branches:
        name = f"branch_k{branch.seed.k}_w{branch.seed.which}"
        header, rows = _branch_rows(branch)
        # point tables are always CSV so the emitted gnuplot script applies
        path = _write_table(outdir / name, "csv", header, rows)
        summaries.append(_branch_summary(branch, path.name))
        entries.append((path.name, branch.seed))
        print(f"{path.name}: {len(branch.points)} points, "
              f"termination {branch.termination.kind}")
    for k in args.k:
        traced = [b for b in branches if b.seed.k == k]
        if len(traced) == 2:
            coincide = abs(traced[0].lambda_seed - traced[1].lambda_seed) \
                <= 1e-9 * max(1.0, abs(traced[0].lambda_seed))
            for summary in summaries:
                if summary["seed"]["k"] == k:
                    summary["lambda_seed_coincides"] = coincide
    _write_json(outdir / "branches.json", summaries)
    (outdir / "branch_plot.gp").write_text(_gnuplot_script(entries),
                                           newline="\n")
    return 0


def cmd_verify(args: argparse.Namespace, grid: Grid) -> int:
    params = ProblemParams(p=args.p, gamma=args.gamma, lam=0.0)
    check_monotonicity_sweep(params, args.pairs)
    report = check_vector_inequalities(args.p, args.samples,
                                       np.random.default_rng(args.seed))
    worst, bad = monotonicity_sweep(
        params, n_pairs=args.pairs, rng=np.random.default_rng(args.seed + 1),
        grid=grid)
    # summing inequality (a) over the elements proves the sampled ratio >= 2^{2-p}
    floor = 2.0 ** (2.0 - args.p)
    payload = {"p": report.p, "n_samples": report.n_samples,
               "c1_emp": report.c1_emp, "c2_emp": report.c2_emp,
               "c1_floor": report.c1_floor, "violations": report.violations,
               "monotonicity_min": worst, "monotonicity_violations": bad,
               "monotonicity_pairs": args.pairs, "monotonicity_floor": floor}
    _write_json(_output_dir(args) / "verify.json", payload)
    # both tests allow the same relative round-off slack at the exact floor;
    # a nonpositive sample lies below the floor too
    ineq_ok = report.violations == 0
    mono_ok = worst >= floor * (1.0 - 1e-9)
    print(f"vector inequalities p={report.p}: c1_emp={report.c1_emp:.6g} "
          f"(floor {report.c1_floor:.6g}), c2_emp={report.c2_emp:.6g}, "
          f"violations={report.violations} -> {'PASS' if ineq_ok else 'FAIL'}")
    print(f"monotonicity sweep: min ratio {worst:.6g} (floor {floor:.6g}) over "
          f"{args.pairs} pairs, violations={bad} -> {'PASS' if mono_ok else 'FAIL'}")
    return 0 if (ineq_ok and mono_ok) else 1


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated values in {text!r}")
    return values


def _seed(text: str) -> int:
    """argparse type of --seed: numpy's error for a negative seed does not name the option."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.

    Its option types only parse (see the module docstring). parse_args makes
    a fresh Namespace each call, and the defaults are scalars and the cmd_*
    functions, so the shared parser carries nothing from one run to the next.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output-dir", default="out",
                        help="directory for results (default: out)")
    common.add_argument("--length", type=float, default=math.pi,
                        help="interval length (default: pi)")
    gridded = argparse.ArgumentParser(add_help=False, parents=[common])
    gridded.add_argument("--grid-n", type=int, default=199,
                         help="number of interior nodes (default: 199)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table format (default: csv)")

    parser = argparse.ArgumentParser(
        prog="fucik-branch",
        description="Half-eigenvalues, Fucik curves, and bifurcation "
                    "branches of the (p,2)-Laplacian on an interval.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[gridded, table],
                        help="discrete Dirichlet Laplacian eigenvalues")
    sp.add_argument("--count", type=int, default=10,
                    help="number of eigenvalues (default: 10)")
    sp.set_defaults(func=cmd_spectrum)

    he = sub.add_parser("halfeig", parents=[gridded],
                        help="split eigenvalue pair for one k and gamma")
    he.add_argument("--k", type=int, required=True)
    he.add_argument("--gamma", type=float, required=True)
    he.set_defaults(func=cmd_halfeig)

    fu = sub.add_parser("fucik", parents=[common, table],
                        help="sample the first Fucik curves from their closed form")
    fu.add_argument("--lambda-max", type=float, default=30.0,
                    help="largest lambda_plus swept (default: 30)")
    fu.add_argument("--samples", type=int, default=200,
                    help="lambda_plus grid size (default: 200)")
    fu.set_defaults(func=cmd_fucik)

    br = sub.add_parser("branch", parents=[gridded],
                        help="trace bifurcation branches")
    br.add_argument("--p", type=float, required=True)
    br.add_argument("--k", type=_int_list, required=True,
                    help="mode index or comma list, e.g. 2 or 1,2,3")
    br.add_argument("--which", choices=("1", "2", "both"), default="both")
    br.add_argument("--gamma", type=float, default=0.0)
    br.add_argument("--alpha0", type=float, default=1e-3,
                    help="seed amplitude (default: 1e-3)")
    br.add_argument("--steps", type=int, default=200,
                    help="maximum accepted points per branch (default: 200)")
    br.set_defaults(func=cmd_branch)

    ve = sub.add_parser("verify", parents=[gridded],
                        help="sampled vector-inequality and monotonicity checks")
    ve.add_argument("--seed", type=_seed, default=42,
                    help="PRNG seed of the sampled checks (default: 42)")
    ve.add_argument("--p", type=float, default=3.0,
                    help="exponent p > 2 (default: 3)")
    ve.add_argument("--gamma", type=float, default=0.5)
    ve.add_argument("--samples", type=int, default=100000,
                    help=f"vector-inequality sample count, at least {MIN_SAMPLES} "
                         f"(default: 100000)")
    ve.add_argument("--pairs", type=int, default=2000,
                    help="monotonicity pair count (default: 2000)")
    ve.set_defaults(func=cmd_verify)
    return parser


def _setup_logging() -> None:
    name = os.environ.get("FUCIK_BRANCH_LOG", "info").strip().lower()
    level = _LOG_LEVELS.get(name)
    if level is None:
        print(f"warning: unknown FUCIK_BRANCH_LOG value {name!r}, using info",
              file=sys.stderr)
        level = logging.INFO
    logging.basicConfig(stream=sys.stderr, level=level, force=True,
                        format="%(levelname)s %(name)s: %(message)s")


def run(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if "grid_n" not in args:  # fucik needs only the length
            return args.func(args)
        return args.func(args, Grid(n_interior=args.grid_n, length=args.length))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(f"  iterations={exc.report.iterations} "
                  f"final_residual={exc.report.final_residual:.3e}",
                  file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
