"""tests/census.py --against: the exit status says whether any row changed,
the drift of rows that keep their ending, and older CSVs without the
Newton-step or failed-call column; the failed corrector calls a trace row
counts; the per-point timing line, which leaves the exit status alone."""

import csv

import census
from fucik_branch import continuation
from fucik_branch.grid import Grid
from fucik_branch.monotone import SolverError


def _row(grid, max_steps, p, k, frac, which):
    # a stand-in for a trace: the census's row, without tracing
    return {"p": p, "k": k, "gamma_frac": frac, "which": which, "mirror_defect": "",
            "termination": "MaxSteps", "detail": "", "points": 200, "lam": 1.0 + p,
            "l2": 0.5, "arclength": 2.0, "newton_steps": 250 + k, "failed_calls": k,
            "seconds": 0.0}, None


def _write(path, rows, fields):
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return path


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
    edited = _write(tmp_path / "edited.csv", rows, census.FIELDS)
    assert census.main(["--n", "9", "--out", str(tmp_path / "new.csv"),
                        "--against", str(edited)]) == 1
    assert "1 of 126 rows changed" in capsys.readouterr().out


def test_against_reports_round_off_drift(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(census, "trace_row", _row)
    first = tmp_path / "first.csv"
    census.main(["--n", "9", "--out", str(first)])
    out = capsys.readouterr().out
    # the 63 p < 2 traces: 21 at each k, of 200 points and 250 + k steps
    assert "p<2: 63 traces: MaxSteps 63; 1.265 Newton steps per point " \
        "(15939/12600)" in out
    with first.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[5]["lam"] = repr(float(rows[5]["lam"]) * (1.0 + 2e-11))
    rows[7]["arclength"] = "2.5"
    rows[9]["points"] = "199"
    edited = _write(tmp_path / "edited.csv", rows, census.FIELDS)
    assert census.main(["--n", "9", "--out", str(tmp_path / "new.csv"),
                        "--against", str(edited)]) == 1
    out = capsys.readouterr().out
    assert "3 of 126 rows changed" in out
    assert "2 changed rows keep their termination and point count; largest " \
        "relative change: lam 2e-11, l2 0, arclength 0.2" in out
    # both CSVs carry Newton steps and failed calls, so the tally diff
    # compares them too
    assert "\n-p<2: 63 traces: MaxSteps 63; 1.265 Newton steps per point " \
        "(15939/12599); 0.015 failed corrector calls per point (189/12599)\n" in out


def test_against_reads_a_csv_without_newton_steps(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(census, "trace_row", _row)
    first = tmp_path / "first.csv"
    census.main(["--n", "9", "--out", str(first)])
    with first.open(newline="") as fh:
        rows = [{f: v for f, v in row.items() if f != "newton_steps"}
                for row in csv.DictReader(fh)]
    older = _write(tmp_path / "older.csv", rows,
                  [f for f in census.FIELDS if f != "newton_steps"])
    capsys.readouterr()
    assert census.main(["--n", "9", "--out", str(tmp_path / "new.csv"),
                        "--against", str(older)]) == 0
    out = capsys.readouterr().out
    assert "0 of 126 rows changed" in out
    assert "tallies unchanged" in out


def test_against_compares_failure_details(tmp_path, monkeypatch, capsys):
    # a row that keeps its termination and values but changes its reason
    monkeypatch.setattr(census, "trace_row", _row)
    first = tmp_path / "first.csv"
    census.main(["--n", "9", "--out", str(first)])
    with first.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[5]["detail"] = "corrector line search stalled"
    edited = _write(tmp_path / "edited.csv", rows, census.FIELDS)
    capsys.readouterr()
    assert census.main(["--n", "9", "--out", str(tmp_path / "new.csv"),
                        "--against", str(edited)]) == 1
    out = capsys.readouterr().out
    assert "1 of 126 rows changed" in out
    assert "1.2 2 0.9 1: detail 'corrector line search stalled' -> ''" in out
    assert "tallies unchanged" in out


def test_against_reads_a_csv_without_failed_calls(tmp_path, monkeypatch, capsys):
    # the failed calls are tallied, not compared: an older CSV without them
    # and a row that only changes them both leave every row unchanged
    monkeypatch.setattr(census, "trace_row", _row)
    first = tmp_path / "first.csv"
    census.main(["--n", "9", "--out", str(first)])
    out = capsys.readouterr().out
    assert "p>2: 63 traces: MaxSteps 63; 1.265 Newton steps per point " \
        "(15939/12600); 0.015 failed corrector calls per point (189/12600)" in out
    with first.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    older = _write(tmp_path / "older.csv",
                   [{f: v for f, v in row.items() if f != "failed_calls"} for row in rows],
                   [f for f in census.FIELDS if f != "failed_calls"])
    assert census.main(["--n", "9", "--out", str(tmp_path / "new.csv"),
                        "--against", str(older)]) == 0
    out = capsys.readouterr().out
    assert "0 of 126 rows changed" in out
    assert "tallies unchanged" in out
    rows[5]["failed_calls"] = "40"
    edited = _write(tmp_path / "edited.csv", rows, census.FIELDS)
    assert census.main(["--n", "9", "--out", str(tmp_path / "new.csv"),
                        "--against", str(edited)]) == 0
    out = capsys.readouterr().out
    assert "0 of 126 rows changed" in out
    assert "\n-p<2: 63 traces: MaxSteps 63; 1.265 Newton steps per point " \
        "(15939/12600); 0.018 failed corrector calls per point (227/12600)\n" in out


def test_trace_row_counts_the_corrector_calls_that_raise(monkeypatch):
    # every third corrector call after the seed's fails, so the trace halves
    # its step that often and still ends in MaxSteps
    corrector, calls = continuation._corrector, [0]

    def failing(*args):
        calls[0] += 1
        if calls[0] > 1 and calls[0] % 3 == 0:
            raise SolverError("corrector line search stalled")
        return corrector(*args)

    monkeypatch.setattr(continuation, "_corrector", failing)
    row, branch = census.trace_row(Grid(n_interior=49), 20,
                                   3.0, 2, 0.5, 1)
    assert row["termination"] == "MaxSteps" and row["points"] == 20
    assert row["failed_calls"] == calls[0] // 3 > 0
    assert calls[0] == row["points"] + row["failed_calls"]
    assert continuation._corrector is failing


def test_point_times_line_stands_beside_the_tally_and_keeps_the_exit_status(
        tmp_path, monkeypatch, capsys):
    # each stand-in trace takes 0.2 s for its 200 points: 1 ms per point
    def timed(*args):
        row, branch = _row(*args)
        row["seconds"] = 0.2
        return row, branch

    monkeypatch.setattr(census, "trace_row", timed)
    first = tmp_path / "first.csv"
    assert census.main(["--n", "9", "--out", str(first)]) == 0
    assert "\nms per accepted point: p<2 1.000, p>2 1.000\n" in capsys.readouterr().out
    # an earlier run twice as slow on p > 2: the line shows it, and nothing
    # else tells the runs apart
    with first.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if float(row["p"]) > 2.0:
            row["seconds"] = "0.4"
    slower = _write(tmp_path / "slower.csv", rows, census.FIELDS)
    assert census.main(["--n", "9", "--out", str(tmp_path / "new.csv"),
                        "--against", str(slower)]) == 0
    out = capsys.readouterr().out
    assert "\nms per accepted point: p<2 1.000 (against 1.000), " \
        "p>2 1.000 (against 2.000)\n" in out
    assert "0 of 126 rows changed" in out
    assert "tallies unchanged" in out
    # a changed row still exits 1 whatever the timings
    rows[5]["lam"] = "9.0"
    edited = _write(tmp_path / "edited.csv", rows, census.FIELDS)
    assert census.main(["--n", "9", "--out", str(tmp_path / "new.csv"),
                        "--against", str(edited)]) == 1
    assert "(against 2.000)" in capsys.readouterr().out
