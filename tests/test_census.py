"""tests/census.py --against: the exit status says whether any row changed."""

import csv

import census


def _row(grid, config, p, k, frac, which):
    # a stand-in for a trace: the census's row, without tracing
    return {"p": p, "k": k, "gamma_frac": frac, "which": which, "mirror_defect": "",
            "termination": "MaxSteps", "detail": "", "points": 200, "lam": 1.0 + p,
            "l2": 0.5, "arclength": 2.0, "seconds": 0.0}, None


def test_against_exits_1_when_a_row_changed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(census, "trace_row", _row)
    first = tmp_path / "first.csv"
    assert census.main(["--n", "9", "--out", str(first)]) == 0
    assert census.main(["--n", "9", "--out", str(tmp_path / "same.csv"),
                        "--against", str(first)]) == 0
    assert "0 of 126 rows changed" in capsys.readouterr().out

    with first.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[5]["lam"] = "9.0"
    edited = tmp_path / "edited.csv"
    with edited.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=census.FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    assert census.main(["--n", "9", "--out", str(tmp_path / "new.csv"),
                        "--against", str(edited)]) == 1
    assert "1 of 126 rows changed" in capsys.readouterr().out
