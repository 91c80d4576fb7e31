"""End-to-end runs of every subcommand through the argument parser."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from pytest import approx

import fucik_branch
from fucik_branch import __version__
from fucik_branch.cli import run
from fucik_branch.grid import Grid, inner_l2, l2_norm, read_field_csv
from fucik_branch.halfeig import fucik_shoot, split_eigenvalues
from fucik_branch.spectrum import closed_form_eigenvalue, eigenpair


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
        fwd, _, _ = fucik_shoot(lp, lm, math.pi)
        rev, _, _ = fucik_shoot(lm, lp, math.pi)
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


def test_log_env_values(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FUCIK_BRANCH_LOG", "debug")
    assert run(["spectrum", "--count", "2", "--output-dir", str(tmp_path)]) == 0
    monkeypatch.setenv("FUCIK_BRANCH_LOG", "bogus")
    assert run(["spectrum", "--count", "2", "--output-dir", str(tmp_path)]) == 0
    assert "FUCIK_BRANCH_LOG" in capsys.readouterr().err
    monkeypatch.setenv("FUCIK_BRANCH_LOG", "error")
    assert run(["spectrum", "--count", "2", "--output-dir", str(tmp_path)]) == 0
