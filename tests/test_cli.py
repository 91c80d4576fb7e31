"""End-to-end runs of every subcommand through the argument parser."""

import argparse
import json
import math
import os
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

from conftest import reference_sweep, reference_table_csv


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


def test_branch_tables_stay_csv_under_json_format(tmp_path):
    rc = run(["branch", "--p", "3", "--k", "2", "--which", "1",
              "--gamma", "0.5", "--steps", "8", "--format", "json",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "branch_k2_w1.csv").exists()
    assert not (tmp_path / "branch_k2_w1.json").exists()


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
                "monotonicity_pairs": 2000}
    assert payload.keys() == expected.keys()
    assert payload.pop("monotonicity_min") == approx(
        expected.pop("monotonicity_min"), rel=1e-12, abs=0.0)
    assert payload == expected


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
    # an absurd seed amplitude makes the seeding corrector stall
    rc = run(["branch", "--p", "3", "--k", "2", "--which", "1",
              "--gamma", "0.5", "--alpha0", "1e6", "--steps", "3",
              "--output-dir", str(tmp_path)])
    assert rc == 1


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


def test_mixed_cell_types_match_cell_by_cell_formatting(tmp_path):
    header = ["a", "b", "c", "d"]
    # the second row puts an int in float column a and a float in int column b
    rows = [[1.5, 2, True, np.int64(-3)],
            [3, 2.5, np.False_, np.float64(0.1)],
            [np.float32(0.1), 2 ** 70, False, np.True_],
            [-0.0, np.uint8(200), 7, 1e300]]
    path = cli._write_table(tmp_path / "mixed", "csv", header, rows)
    assert path.read_bytes() == reference_table_csv(header, rows).encode()
    assert path.read_text().splitlines()[2] == "3,2.5,0,0.10000000000000001"


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
    outdir = tmp_path / "out"
    assert run([command, *bad, "--output-dir", str(outdir)]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_repeated_k_is_a_usage_error(tmp_path):
    with pytest.raises(argparse.ArgumentTypeError, match="repeated"):
        cli._int_list("2,3,2")
    outdir = tmp_path / "out"
    assert run(["branch", "--p", "3", "--k", "2,2", "--gamma", "0.5",
                "--output-dir", str(outdir)]) == 2
    assert not outdir.exists()
