"""End-to-end runs of every subcommand through the argument parser."""

import argparse
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

import fucik_branch
from fucik_branch import __version__, cli, halfeig
from fucik_branch.cli import run
from fucik_branch.grid import Grid, inner_l2, l2_norm, read_field_csv
from fucik_branch.halfeig import split_eigenvalues
from fucik_branch.monotone import SolverError, check_vector_inequalities
from fucik_branch.quasilinear import ProblemParams
from fucik_branch.spectrum import closed_form_eigenvalue, eigenpair

from conftest import counting, reference_sweep, reference_table_csv
from oracles import reference_fucik_curve_points


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def walk_numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from walk_numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from walk_numbers(value)
    elif isinstance(node, float):
        yield node


def test_spectrum_csv(tmp_path):
    rc = run(["spectrum", "--grid-n", "199", "--length", "3.14159265",
              "--count", "5", "--output-dir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["k", "lambda_discrete", "lambda_continuum"]
    assert len(rows) == 5
    for row, k in zip(rows, range(1, 6)):
        assert int(row[0]) == k
        assert float(row[1]) == approx(k * k, rel=1e-3)
        assert float(row[2]) == approx(k * k, rel=1e-6)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["command"] == "spectrum"
    assert meta["version"] == __version__
    assert meta["parameters"]["count"] == 5
    assert meta["parameters"]["grid_n"] == 199


def test_spectrum_json_format(tmp_path):
    rc = run(["spectrum", "--count", "3", "--format", "json",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "spectrum.json").read_text())
    assert [row["k"] for row in rows] == [1, 2, 3]
    grid = Grid()
    for row in rows:
        assert row["lambda_discrete"] == approx(
            closed_form_eigenvalue(grid, row["k"]), rel=1e-12)


def test_half_eigen_drift_failure_exits_1(tmp_path, monkeypatch, capsys):
    # a drift bracket too narrow to hold the discrete root must be reported
    monkeypatch.setattr(halfeig, "_DRIFT_CONST", 1e-12)
    with pytest.raises(SolverError, match="drifted"):
        split_eigenvalues(Grid(), 2, 0.5)
    capsys.readouterr()
    assert run(["halfeig", "--k", "2", "--gamma", "0.5",
                "--output-dir", str(tmp_path)]) == 1
    assert "solver failure: discrete half-eigenvalue drifted" \
        in capsys.readouterr().err
    assert not (tmp_path / "halfeig.json").exists()


def test_halfeig_gamma_zero(tmp_path):
    rc = run(["halfeig", "--k", "2", "--gamma", "0",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "halfeig.json").read_text())
    grid = Grid()
    lam2 = closed_form_eigenvalue(grid, 2)
    assert payload["lambda1"] == approx(lam2, rel=1e-12)
    assert payload["lambda2"] == approx(lam2, rel=1e-12)
    assert payload["eta"] == approx(0.5, abs=1e-12)
    assert payload["gamma_max"] > 0.0
    v1 = read_field_csv(tmp_path / "halfeig_v1.csv")
    v2 = read_field_csv(tmp_path / "halfeig_v2.csv")
    # coordinates reconstruct the grid only to rounding, so compare loosely
    # and evaluate inner products on the reconstructed grid
    assert v1.grid.n_interior == grid.n_interior
    assert v1.grid.length == approx(grid.length, rel=1e-14)
    e2 = eigenpair(v1.grid, 2).vector
    assert l2_norm(v1) == approx(1.0, abs=1e-10)
    assert inner_l2(e2, v1) == approx(1.0, abs=1e-10)
    assert inner_l2(e2, v2) == approx(-1.0, abs=1e-10)


def test_fucik_table_satisfies_shooting(tmp_path):
    rc = run(["fucik", "--lambda-max", "12", "--samples", "40",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "fucik.csv")
    assert header == ["lambda_plus", "lambda_minus", "n_plus", "n_minus"]
    assert len(rows) >= 30
    for row in rows[::10]:
        lp, lm = float(row[0]), float(row[1])
        np_, nm = int(row[2]), int(row[3])
        assert math.isfinite(lp) and math.isfinite(lm)
        assert abs(np_ - nm) <= 1
        # curves come in both orientations; the swapped shoot covers the
        # branch that starts with a negative hump
        fwd, _, _ = halfeig._shoot(lp, lm, math.pi)
        rev, _, _ = halfeig._shoot(lm, lp, math.pi)
        assert min(abs(fwd), abs(rev)) <= 1e-8


def test_branch_first_row_matches_halfeig(tmp_path):
    rc = run(["branch", "--p", "3", "--k", "2", "--which", "1",
              "--gamma", "0.5", "--steps", "30", "--output-dir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "branch_k2_w1.csv")
    assert header == ["s", "lambda", "alpha", "l2", "h12", "in_cone"]
    assert len(rows) == 30
    pair = split_eigenvalues(Grid(), 2, 0.5)
    assert abs(float(rows[0][1]) - pair.lambda1) <= 0.05
    assert float(rows[0][0]) == 0.0
    assert rows[0][5] == "1"
    summaries = json.loads((tmp_path / "branches.json").read_text())
    assert len(summaries) == 1
    summary = summaries[0]
    assert summary["seed"] == {"k": 2, "which": 1, "gamma": 0.5, "p": 3.0}
    assert summary["file"] == "branch_k2_w1.csv"
    assert summary["points"] == 30
    assert summary["lambda_seed"] == approx(pair.lambda1, rel=1e-12)
    assert summary["cone_violations"] == 0
    assert summary["termination"]["kind"] == "MaxSteps"
    script = (tmp_path / "branch_plot.gp").read_text()
    assert "branch_k2_w1.csv" in script
    assert "plot" in script


def test_branch_both_sides(tmp_path):
    rc = run(["branch", "--p", "3", "--k", "2", "--gamma", "0.5",
              "--steps", "12", "--output-dir", str(tmp_path)])
    assert rc == 0
    summaries = json.loads((tmp_path / "branches.json").read_text())
    assert [s["seed"]["which"] for s in summaries] == [1, 2]
    # for even k the split values coincide, and the summary records it
    assert all(s["lambda_seed_coincides"] is True for s in summaries)
    assert summaries[0]["lambda_seed"] == approx(summaries[1]["lambda_seed"],
                                                 rel=1e-9)
    script = (tmp_path / "branch_plot.gp").read_text()
    assert "branch_k2_w1.csv" in script and "branch_k2_w2.csv" in script


def test_branch_output_does_not_depend_on_blas_threads(tmp_path):
    # the corrector makes no BLAS call whose summation order depends on the
    # thread count, so a p = 1.5 trace is byte-identical on 1 and 2 threads
    src = str(Path(fucik_branch.__file__).resolve().parents[1])
    tables = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        outdir = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "fucik_branch.cli", "branch", "--p", "1.5",
             "--k", "2", "--which", "1", "--gamma", "0.5", "--steps", "60",
             "--output-dir", str(outdir)],
            env=env, check=True, capture_output=True, timeout=300)
        tables.append((outdir / "branch_k2_w1.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--count", "2", "--grid-n", "9"],
    ["halfeig", "--k", "2", "--gamma", "0.5", "--grid-n", "9"],
    ["fucik", "--samples", "5"],
    ["branch", "--p", "3", "--k", "2", "--which", "1", "--gamma", "0.5",
     "--steps", "3", "--grid-n", "19"],
    ["verify", "--samples", "10000", "--pairs", "10", "--grid-n", "9"],
], ids=lambda argv: argv[0])
def test_every_option_is_read_where_it_is_accepted(tmp_path, monkeypatch, argv):
    # an option the run of its subcommand never reads changes nothing but
    # run_meta.json; --output-dir is read in writing that file
    reads = set()

    class Recorder(argparse.Namespace):
        """Records the names of the attributes read from it, once parsed."""

        def __getattribute__(self, name):
            if not name.startswith("__"):
                reads.add(name)
            return super().__getattribute__(name)

    parser = cli.build_parser()
    parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda args: Recorder(**vars(parse(args))))
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert run([*argv, "--output-dir", str(tmp_path)]) == 0
    subparser = next(action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)).choices[argv[0]]
    dests = {action.dest for action in subparser._actions if action.dest != "help"}
    assert dests - reads == set()


def test_transformed_branch_table_has_extra_column(tmp_path):
    rc = run(["branch", "--p", "1.5", "--k", "2", "--which", "1",
              "--gamma", "0.5", "--steps", "8", "--output-dir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "branch_k2_w1.csv")
    assert header[-1] == "h12_original"
    origs = [float(row[-1]) for row in rows]
    assert all(x > 0.0 for x in origs)
    assert origs[-1] < origs[0]


def test_meets_infinity_reported_as_null_rho(tmp_path):
    # a huge seed amplitude crosses the norm cap immediately; the summary
    # must carry the infinite localization radius as null, not inf
    rc = run(["branch", "--p", "1.5", "--k", "2", "--which", "1",
              "--gamma", "0.5", "--alpha0", "1000.0", "--steps", "3",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "branches.json").read_text())[0]
    assert summary["termination"]["kind"] == "MeetsInfinity"
    assert summary["empirical_rho0"] is None
    assert summary["slope_fit"] is None
    for value in walk_numbers(summary):
        assert math.isfinite(value)


def test_identical_flags_are_byte_identical(tmp_path):
    args = ["branch", "--p", "3", "--k", "2", "--which", "1",
            "--gamma", "0.5", "--steps", "10"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run(args + ["--output-dir", str(d)]) == 0
    for name in ("branch_k2_w1.csv", "branches.json", "branch_plot.gp"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    for d in dirs:
        assert run(["spectrum", "--count", "4", "--output-dir", str(d)]) == 0
    assert (dirs[0] / "spectrum.csv").read_bytes() \
        == (dirs[1] / "spectrum.csv").read_bytes()


def test_csv_cells_are_finite_17_digit(tmp_path):
    rc = run(["branch", "--p", "3", "--k", "1", "--gamma", "0",
              "--which", "1", "--steps", "10", "--output-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "branch_k1_w1.csv").read_text()
    assert "nan" not in text.lower() and "inf" not in text.lower()
    assert text.endswith("\n") and "\r" not in text
    _, rows = read_csv(tmp_path / "branch_k1_w1.csv")
    # 17 significant digits identify a double uniquely: parse and re-format
    # must reproduce every cell byte for byte
    from fucik_branch.grid import FLOAT_FORMAT
    for row in rows:
        for cell in row[:5]:
            assert FLOAT_FORMAT % float(cell) == cell


def test_verify_subcommand(tmp_path):
    rc = run(["verify", "--p", "3", "--gamma", "0.5", "--samples", "10000",
              "--pairs", "50", "--output-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["violations"] == 0
    assert payload["monotonicity_violations"] == 0
    assert payload["c1_floor"] == approx(0.5, rel=1e-15)
    assert payload["c1_emp"] >= 0.5 * (1.0 - 1e-9)
    assert payload["monotonicity_min"] > 0.0
    assert payload["n_samples"] == 10000
    assert payload["monotonicity_pairs"] == 50


def test_verify_matches_pair_loop(tmp_path):
    # the defaults: p = 3, gamma = 0.5, 1e5 samples, 2000 pairs; the sweep
    # draws from seed + 1
    assert run(["verify", "--seed", "5", "--output-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    report = check_vector_inequalities(3.0, 100000, np.random.default_rng(5))
    worst, bad = reference_sweep(ProblemParams(p=3.0, gamma=0.5, lam=0.0), 2000,
                                 np.random.default_rng(6), Grid())
    expected = {"p": report.p, "n_samples": report.n_samples,
                "c1_emp": report.c1_emp, "c2_emp": report.c2_emp,
                "c1_floor": report.c1_floor, "violations": report.violations,
                "monotonicity_min": worst, "monotonicity_violations": bad,
                "monotonicity_pairs": 2000, "monotonicity_floor": 0.5}
    assert payload.keys() == expected.keys()
    assert payload.pop("monotonicity_min") == approx(
        expected.pop("monotonicity_min"), rel=1e-12, abs=0.0)
    assert payload == expected


@pytest.mark.parametrize("scale, rc", [(1.0 - 1e-6, 1), (1.0 - 1e-10, 0), (1.0, 0)])
def test_verify_gates_on_the_monotonicity_floor(tmp_path, monkeypatch, capsys,
                                                scale, rc):
    # p = 4: floor 2^{2-p} = 0.25, with the relative slack 1e-9
    monkeypatch.setattr(cli, "monotonicity_sweep",
                        lambda params, n_pairs, rng, grid: (0.25 * scale, 0))
    assert run(["verify", "--p", "4", "--samples", "10000",
                "--output-dir", str(tmp_path)]) == rc
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["monotonicity_floor"] == 0.25
    assert payload["monotonicity_min"] == 0.25 * scale
    line = capsys.readouterr().out.splitlines()[-1]
    assert "(floor 0.25)" in line and line.endswith("FAIL" if rc else "PASS")


def _case(argv: list[str], message: str, case_id: str):
    """A usage-error case whose message changed when its check moved, from an
    argparse option type into the library object that takes the value or
    from Grid into the function that takes the length. It keeps the id the
    old message gave it, so the case keeps its name."""
    return pytest.param(argv, message, id=case_id)


@pytest.mark.parametrize("bad, message", [
    _case(["--p", "1.5"], "only for p > 2, got p=1.5",
          "bad0---p: must be a finite number > 2"),
    _case(["--samples", "100"], "n_samples must be at least 10000, got 100",
          "bad1---samples: must be an integer >= 10000"),
    _case(["--pairs", "0"], "n_pairs must be at least 1, got 0",
          "bad2---pairs: must be an integer >= 1"),
    _case(["--gamma", "-1"], "gamma must be finite and nonnegative, got -1.0",
          "bad3---gamma: must be a finite number >= 0"),
    _case(["--gamma", "nan"], "gamma must be finite and nonnegative, got nan",
          "bad4---gamma: must be a finite number >= 0"),
    _case(["--gamma", "inf"], "gamma must be finite and nonnegative, got inf",
          "bad5---gamma: must be a finite number >= 0"),
    # |x|^(p-2) leaves the double range: the report would hold inf, which
    # verify.json cannot take
    (["--p", "60"], "ratios at p=60.0 leave the double range"),
    (["--p", "100"], "ratios at p=100.0 leave the double range"),
])
def test_verify_usage_errors_exit_2_before_any_output(tmp_path, capsys, bad, message):
    outdir = tmp_path / "out"
    assert run(["verify", *bad, "--output-dir", str(outdir)]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_verify_samples_help_names_its_default():
    # --samples parses integers only, so "1e5" in the help was not a value it takes
    parser = cli.build_parser()
    verify = next(action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)).choices["verify"]
    samples = next(action for action in verify._actions if "--samples" in action.option_strings)
    assert f"(default: {samples.default})" in samples.help
    assert samples.type("100000") == samples.default


def test_verify_checks_pairs_before_sampling(tmp_path, monkeypatch):
    counts = {"calls": 0}
    monkeypatch.setattr(cli, "check_vector_inequalities", counting(
        counts, "calls", cli.check_vector_inequalities))
    outdir = tmp_path / "out"
    assert run(["verify", "--pairs", "0", "--output-dir", str(outdir)]) == 2
    assert counts["calls"] == 0
    assert not outdir.exists()


def test_usage_errors_exit_2(tmp_path):
    out = str(tmp_path)
    assert run([]) == 2
    assert run(["branch", "--output-dir", out]) == 2
    assert run(["spectrum", "--grid-n", "2", "--output-dir", out]) == 2
    assert run(["spectrum", "--count", "0", "--output-dir", out]) == 2
    assert run(["halfeig", "--k", "1", "--gamma", "0.5",
                "--output-dir", out]) == 2
    assert run(["fucik", "--lambda-max", "0.5", "--output-dir", out]) == 2
    assert run(["spectrum", "--format", "xml", "--output-dir", out]) == 2


def test_solver_failure_exits_1(tmp_path):
    # an absurd seed amplitude makes the seeding corrector stall; no results,
    # so no output
    outdir = tmp_path / "out"
    rc = run(["branch", "--p", "3", "--k", "2", "--which", "1",
              "--gamma", "0.5", "--alpha0", "1e6", "--steps", "3",
              "--output-dir", str(outdir)])
    assert rc == 1
    assert not outdir.exists()


def test_half_eigen_self_check_failure_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(halfeig, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError, match="half-eigen residual"):
        split_eigenvalues(Grid(), 2, 0.5)
    # SolverError is a RuntimeError, so callers catching RuntimeError still do
    with pytest.raises(RuntimeError):
        split_eigenvalues(Grid(), 2, 0.5)
    capsys.readouterr()
    assert run(["halfeig", "--k", "2", "--gamma", "0.5",
                "--output-dir", str(tmp_path)]) == 1
    assert "solver failure: half-eigen residual" in capsys.readouterr().err
    assert not (tmp_path / "halfeig.json").exists()
    # the branch seed goes through the same checks
    assert run(["branch", "--p", "3", "--k", "2", "--which", "1",
                "--gamma", "0.5", "--steps", "3",
                "--output-dir", str(tmp_path)]) == 1
    assert "solver failure: half-eigen residual" in capsys.readouterr().err


def _recorded_tables(monkeypatch) -> list:
    """Record (path, fmt, header, rows) of every table cli writes."""
    tables = []
    write = cli._write_table

    def recorded(base, fmt, header, rows):
        path = write(base, fmt, header, rows)
        tables.append((path, fmt, header, rows))
        return path

    monkeypatch.setattr(cli, "_write_table", recorded)
    return tables


@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["fucik", "--samples", "50"],
    ["branch", "--p", "3", "--k", "2", "--gamma", "0.5", "--steps", "15"],
    ["branch", "--p", "1.5", "--k", "2", "--gamma", "0.5", "--steps", "15"],
])
def test_csv_tables_match_cell_by_cell_formatting(tmp_path, monkeypatch, argv):
    tables = _recorded_tables(monkeypatch)
    assert run(argv + ["--output-dir", str(tmp_path)]) == 0
    assert tables
    for path, fmt, header, rows in tables:
        assert fmt == "csv" and rows
        assert path.read_bytes() == reference_table_csv(header, rows).encode()
    if argv[0] == "branch":
        # in_cone is a bool column, and the transformed trace adds h12_original
        assert all(isinstance(row[5], (bool, np.bool_))
                   for _, _, _, rows in tables for row in rows)
        assert (tables[0][2][-1] == "h12_original") == (argv[2] == "1.5")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_table_cell_raises_solver_error(tmp_path, fmt, bad):
    for col in range(3):
        rows = [[1, 0.5, True], [2, 1.5, False]]
        rows[1][col] = bad
        with pytest.raises(SolverError, match="non-finite value"):
            cli._write_table(tmp_path / "t", fmt, ["k", "x", "flag"], rows)
        assert not (tmp_path / f"t.{fmt}").exists()


def test_non_finite_table_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "continuum_eigenvalue", lambda grid, k: math.nan)
    assert run(["spectrum", "--output-dir", str(tmp_path)]) == 1
    assert "solver failure: non-finite value" in capsys.readouterr().err


def test_json_tables_keep_cell_types(tmp_path, monkeypatch):
    tables = _recorded_tables(monkeypatch)
    for argv in (["spectrum"], ["fucik", "--samples", "20"]):
        assert run(argv + ["--format", "json",
                           "--output-dir", str(tmp_path)]) == 0
    for path, fmt, header, rows in tables:
        assert fmt == "json"
        payload = json.loads(path.read_text())
        assert [list(entry) for entry in payload] == [sorted(header)] * len(rows)
        for entry, row in zip(payload, rows):
            for key, x in zip(header, row):
                assert entry[key] == x and type(entry[key]) is type(x)


def test_log_env_values(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FUCIK_BRANCH_LOG", "debug")
    assert run(["spectrum", "--count", "2", "--output-dir", str(tmp_path)]) == 0
    monkeypatch.setenv("FUCIK_BRANCH_LOG", "bogus")
    assert run(["spectrum", "--count", "2", "--output-dir", str(tmp_path)]) == 0
    assert "FUCIK_BRANCH_LOG" in capsys.readouterr().err
    monkeypatch.setenv("FUCIK_BRANCH_LOG", "error")
    assert run(["spectrum", "--count", "2", "--output-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", ["spectrum", "fucik"])
@pytest.mark.parametrize("bad, message", [
    (["--grid-n", "2"], "must be an integer >= 3"),
    (["--length", "0"], "length must be positive and finite"),
    (["--length", "nan"], "length must be positive and finite"),
])
def test_bad_grid_exits_2_before_any_output(tmp_path, capsys, command, bad, message):
    if command == "fucik" and bad[0] == "--grid-n":
        # fucik needs only the length, builds no Grid and takes no --grid-n
        message = "unrecognized arguments: --grid-n 2"
    outdir = tmp_path / "out"
    assert run([command, *bad, "--output-dir", str(outdir)]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


_BRANCH = ["branch", "--p", "3", "--k", "2", "--gamma", "0.5"]


@pytest.mark.parametrize("argv, message", [
    _case(["branch", "--p", "3", "--k", "2", "--gamma", "nan"],
          "gamma must be finite and nonnegative, got nan",
          "argv0---gamma: must be a finite number >= 0"),
    _case(["branch", "--p", "3", "--k", "2", "--gamma", "-0.5"],
          "gamma must be finite and nonnegative, got -0.5",
          "argv1---gamma: must be a finite number >= 0"),
    _case(["halfeig", "--k", "2", "--gamma", "-1"], "gamma must be nonnegative, got -1.0",
          "argv2---gamma: must be a finite number >= 0"),
    _case(["halfeig", "--k", "2", "--gamma", "nan"], "gamma must be nonnegative, got nan",
          "argv3---gamma: must be a finite number >= 0"),
    _case(["fucik", "--lambda-max", "inf"], "lambda_max must be finite and exceed",
          "argv4---lambda-max: must be a finite number"),
    _case(["fucik", "--lambda-max", "nan"], "lambda_max must be finite and exceed",
          "argv5---lambda-max: must be a finite number"),
    _case(["fucik", "--samples", "1"], "need at least 2 samples",
          "argv6---samples: must be an integer >= 2"),
    _case([*_BRANCH, "--alpha0", "nan"], "alpha0 must be finite and positive, got nan",
          "argv7---alpha0: must be a finite number > 0"),
    _case([*_BRANCH, "--alpha0", "0"], "alpha0 must be finite and positive, got 0.0",
          "argv8---alpha0: must be a finite number > 0"),
    _case([*_BRANCH, "--steps", "0"], "max_steps must be an integer >= 1, got 0",
          "argv9---steps: must be an integer >= 1"),
    _case(["branch", "--p", "nan", "--k", "2"], "p must lie in (1,2) or (2,inf), got nan",
          "argv10---p: must be a finite number in (1, 2) or (2, inf)"),
    _case(["branch", "--p", "2", "--k", "2"], "p must lie in (1,2) or (2,inf), got 2.0",
          "argv11---p: must be a finite number in (1, 2) or (2, inf)"),
    _case(["spectrum", "--count", "0"], "--count must be between 1 and --grid-n (199), got 0",
          "argv12---count: must be an integer >= 1"),
    _case(["spectrum", "--count", "200"],
          "--count must be between 1 and --grid-n (199), got 200",
          "argv13---count must not exceed --grid-n (199), got 200"),
    _case(["spectrum", "--count", "10", "--grid-n", "9"],
          "--count must be between 1 and --grid-n (9), got 10",
          "argv14---count must not exceed --grid-n (9), got 10"),
    # below the principal eigenvalue (pi/length)^2
    _case(["fucik", "--lambda-max", "0.5"],
          "lambda_max must be finite and exceed the principal eigenvalue",
          "argv15---lambda-max must exceed the principal eigenvalue (pi/length)^2 = 1, "
          "got 0.5"),
    _case(["fucik", "--lambda-max", "3", "--length", "1"],
          "lambda_max must be finite and exceed the principal eigenvalue",
          "argv16---lambda-max must exceed the principal eigenvalue (pi/length)^2 = "
          "9.8696, got 3.0"),
    (["halfeig", "--k", "1", "--gamma", "0.5"], "k = 1 admits only gamma = 0"),
    (["halfeig", "--k", "2", "--gamma", "5"], "gamma=5.0 outside [0, 2.99969) for k=2"),
    (["halfeig", "--k", "0", "--gamma", "0.5"], "k must be a positive integer, got 0"),
    (["halfeig", "--k", "250", "--gamma", "0.5"], "k=250 needs at least 251 interior nodes"),
    (["halfeig", "--k", "199", "--gamma", "0"], "k=199 needs at least 200 interior nodes"),
    (["branch", "--p", "3", "--k", "250"], "k=250 needs at least 251 interior nodes"),
    (["branch", "--p", "3", "--k", "2,250"], "k=250 needs at least 251 interior nodes"),
    (["branch", "--p", "1.5", "--k", "1", "--gamma", "0.5"], "k = 1 admits only gamma = 0"),
    (["branch", "--p", "3", "--k", "3", "--gamma", "50"], "gamma=50.0 outside"),
    # a length whose 4/h^2 overflows
    (["spectrum", "--length", "1e-300"],
     "length 1e-300 is too small for 199 interior nodes: 4/h^2 overflows"),
    (["halfeig", "--k", "2", "--gamma", "0.1", "--length", "1e-200"],
     "length 1e-200 is too small for 199 interior nodes: 4/h^2 overflows"),
    # fucik builds no Grid; the sweep itself refuses a length whose
    # (pi/length)^2 overflows
    _case(["fucik", "--length", "1e-300"],
          "interval length 1e-300 is too small: (pi/length)^2 overflows",
          "argv28-length 1e-300 is too small for 199 interior nodes: 4/h^2 overflows"),
    # 1/h^2 is finite here, but the top eigenvalues, near 4/h^2, overflow
    (["spectrum", "--length", "1.5e-152"],
     "length 1.5e-152 is too small for 199 interior nodes: 4/h^2 overflows"),
    (["verify", "--seed", "-1"], "--seed: must be an integer >= 0"),
    # options a subcommand would not read: branch tables are always CSV (the
    # gnuplot script reads them), halfeig samples nothing, fucik needs no grid
    (["branch", "--p", "3", "--k", "2", "--format", "json"],
     "unrecognized arguments: --format json"),
    (["halfeig", "--k", "2", "--gamma", "0.5", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (["fucik", "--grid-n", "9"], "unrecognized arguments: --grid-n 9"),
])
def test_bad_option_values_exit_2_before_any_output(tmp_path, capsys, argv, message):
    outdir = tmp_path / "out"
    assert run([*argv, "--output-dir", str(outdir)]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_branch_checks_every_k_before_the_first_trace(tmp_path, monkeypatch):
    traced = []
    monkeypatch.setattr(cli, "trace_branch", lambda *args: traced.append(args))
    assert run(["branch", "--p", "3", "--k", "2,250", "--gamma", "0.5",
                "--output-dir", str(tmp_path / "out")]) == 2
    assert traced == []


def test_options_only_parse():
    # value checks belong to the library objects that take the values; the
    # seed type is the one exception (numpy's error would not name --seed)
    parsers = [cli.build_parser()]
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            # type None passes the string through
            assert action.choices is not None or action.type in (
                None, str, int, float, cli._int_list, cli._seed), action.dest
    assert len(parsers) == 6


def test_spectrum_count_may_equal_grid_n(tmp_path):
    assert run(["spectrum", "--count", "9", "--grid-n", "9",
                "--output-dir", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / "spectrum.csv")[1]) == 9


def _fucik_reference_bytes(argv: list[str]) -> tuple[bytes, bytes]:
    """CSV and JSON bytes of the fucik table, built cell by cell from the loop sweep."""
    args = cli.build_parser().parse_args(["fucik", *argv])
    header = ["lambda_plus", "lambda_minus", "n_plus", "n_minus"]
    rows = [[pt.lambda_plus, pt.lambda_minus, pt.n_plus, pt.n_minus]
            for pt in reference_fucik_curve_points(args.length, args.lambda_max,
                                                   args.samples)]
    payload = [dict(zip(header, row)) for row in rows]
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return reference_table_csv(header, rows).encode(), text.encode()


@pytest.mark.parametrize("argv", [
    [],
    ["--samples", "2"],
    ["--length", "7.3", "--lambda-max", "60"],
])
def test_fucik_output_bytes_equal_the_loop_sweep(tmp_path, argv):
    csv_bytes, json_bytes = _fucik_reference_bytes(argv)
    assert run(["fucik", *argv, "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fucik.csv").read_bytes() == csv_bytes
    assert run(["fucik", *argv, "--format", "json", "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fucik.json").read_bytes() == json_bytes


def _table_row(kind: str, i: int) -> list:
    """Row i of a table, its cell types fixed by kind and its values by i.

    Every kind keeps one format per column, as every table the commands
    write does (_write_table takes the row format from the first row): float
    in w and z, integer in x, bool in y, each as Python or numpy types."""
    return {"a": [0.1 * (i + 1), 2 ** 70 + i, i % 2 == 0, np.float64(-0.0)],
            "b": [np.float64(-3 - i) / 7, np.int64(-3 - i), np.bool_(i % 3),
                  2.5e-300 * (i + 1)],
            "c": [np.float32(0.1 * i), np.uint8(200 + i), np.True_, 1e300 / (i + 1)],
            "d": [-1.0 / (i + 1), np.int32(7 * i), False, float(3 + i)]}[kind]


@pytest.mark.parametrize("pattern", [
    "",               # header only
    "a",              # one row
    "abcdcbad",       # the cell types change every row
    "aaabbbbcccdda",  # and every few rows
    "d" * 25,         # one run
])
def test_bulk_table_matches_cell_by_cell_formatting(tmp_path, pattern):
    header = ["w", "x", "y", "z"]
    rows = [_table_row(kind, i) for i, kind in enumerate(pattern)]
    expected = reference_table_csv(header, rows).encode()
    assert cli._write_table(tmp_path / "t", "csv", header, rows).read_bytes() == expected
    # rows as tuples, as cmd_fucik passes them
    rows = [tuple(row) for row in rows]
    assert cli._write_table(tmp_path / "t", "csv", header, rows).read_bytes() == expected


def test_repeated_k_is_a_usage_error(tmp_path):
    with pytest.raises(argparse.ArgumentTypeError, match="repeated"):
        cli._int_list("2,3,2")
    outdir = tmp_path / "out"
    assert run(["branch", "--p", "3", "--k", "2,2", "--gamma", "0.5",
                "--output-dir", str(outdir)]) == 2
    assert not outdir.exists()


def _fresh_cli(monkeypatch):
    """fucik_branch.cli imported anew, its parser not yet built; the module
    every other test uses is put back when the test ends."""
    monkeypatch.delitem(sys.modules, "fucik_branch.cli")
    monkeypatch.setattr(fucik_branch, "cli", cli)
    return importlib.import_module("fucik_branch.cli")


def test_the_parser_is_built_on_the_first_run_alone(tmp_path, monkeypatch):
    built = {"parsers": 0}
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting(
        built, "parsers", argparse.ArgumentParser.__init__))
    fresh = _fresh_cli(monkeypatch)
    assert built["parsers"] == 0
    assert fresh.run(["fucik", "--samples", "5", "--output-dir", str(tmp_path / "first")]) == 0
    first = built["parsers"]
    assert first > 0
    for argv in (["spectrum", "--count", "2", "--grid-n", "9"],
                 ["halfeig", "--k", "2", "--gamma", "0.5", "--grid-n", "9"],
                 ["verify", "--samples", "10000", "--pairs", "10", "--grid-n", "9"],
                 ["fucik", "--samples", "5"]):
        assert fresh.run([*argv, "--output-dir", str(tmp_path / argv[0])]) == 0
    assert fresh.build_parser() is fresh.build_parser()
    assert built["parsers"] == first


def _outputs(outdir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


_SMALL_VERIFY = ["--samples", "10000", "--pairs", "10", "--grid-n", "9"]


@pytest.mark.parametrize("first, second, defaults", [
    (["fucik", "--format", "json", "--length", "2", "--samples", "5"],
     ["fucik", "--samples", "5"], {"format": "csv", "length": math.pi}),
    (["verify", "--seed", "5", "--p", "2.5", *_SMALL_VERIFY],
     ["verify", *_SMALL_VERIFY], {"seed": 42, "p": 3.0}),
], ids=["fucik", "verify"])
def test_a_run_leaves_nothing_in_the_parser(tmp_path, monkeypatch, first, second, defaults):
    # the second command writes the same files after the first as it does
    # as the first run of a fresh parser, its defaults included
    fresh = _fresh_cli(monkeypatch)
    outdir = tmp_path / "second"
    assert fresh.run([*second, "--output-dir", str(outdir)]) == 0
    alone = _outputs(outdir)
    shutil.rmtree(outdir)
    assert fresh.run([*first, "--output-dir", str(tmp_path / "first")]) == 0
    assert fresh.run([*second, "--output-dir", str(outdir)]) == 0
    assert _outputs(outdir) == alone
    params = json.loads(alone["run_meta.json"])["parameters"]
    assert {key: params[key] for key in defaults} == defaults


@pytest.mark.parametrize("argv, message", [
    (["fucik", "--grid-n", "9"], "unrecognized arguments: --grid-n 9"),
    (["verify", "--seed", "-1"], "argument --seed: must be an integer >= 0, got -1"),
], ids=["fucik", "verify"])
def test_usage_errors_on_a_warm_parser(tmp_path, capsys, argv, message):
    assert run(["fucik", "--samples", "5", "--output-dir", str(tmp_path / "warm")]) == 0
    capsys.readouterr()
    outdir = tmp_path / "out"
    assert run([*argv, "--output-dir", str(outdir)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not outdir.exists()


def test_help_on_a_warm_parser(tmp_path, capsys):
    assert run(["fucik", "--samples", "5", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run(["fucik", "--help"]) == 0
    captured = capsys.readouterr()
    assert "--lambda-max" in captured.out
    assert captured.err == ""
