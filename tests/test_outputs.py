"""tests/outputs.py on a two-run matrix: a repeated run matches, a changed
output is listed with its largest relative change or, for a text file, its
first differing line, and --out must be new."""

import json

import pytest

import outputs

TWO_RUNS = [("spectrum", ["spectrum", "--grid-n", "9", "--count", "5"]),
            ("halfeig", ["halfeig", "--k", "2", "--gamma", "0.5", "--grid-n", "9"])]


def test_repeated_run_matches(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(outputs, "MATRIX", TWO_RUNS)
    assert outputs.main(["--out", str(tmp_path / "a")]) == 0
    assert outputs.main(["--out", str(tmp_path / "b"), "--against", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert f"2 runs, 8 files in {tmp_path / 'b'}" in out
    assert out.endswith(f"against {tmp_path / 'a'}: 0 changed\n\n")
    # every file of the runs is hashed, console.txt and run_meta.json included
    sums = (tmp_path / "b" / outputs.MANIFEST).read_text().splitlines()
    assert [line.split("  ")[1] for line in sums] == [
        "halfeig/console.txt", "halfeig/halfeig.json", "halfeig/halfeig_v1.csv",
        "halfeig/halfeig_v2.csv", "halfeig/run_meta.json", "spectrum/console.txt",
        "spectrum/run_meta.json", "spectrum/spectrum.csv"]
    assert (tmp_path / "b" / "halfeig" / "console.txt").read_text().startswith(
        "exit 0\n--- stdout\nlambda1=")
    # run_meta.json records the run's name as its output directory
    meta = json.loads((tmp_path / "b" / "spectrum" / "run_meta.json").read_text())
    assert meta["parameters"]["output_dir"] == "spectrum"


def test_changed_outputs_are_listed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(outputs, "MATRIX", TWO_RUNS)
    outputs.main(["--out", str(tmp_path / "a")])
    # gamma 0.25 for 0.5 changes every half-eigen output; --count 3 for 5
    # drops two spectrum rows
    monkeypatch.setattr(outputs, "MATRIX", [
        ("spectrum", ["spectrum", "--grid-n", "9", "--count", "3"]),
        ("halfeig", ["halfeig", "--k", "2", "--gamma", "0.25", "--grid-n", "9"])])
    capsys.readouterr()
    assert outputs.main(["--out", str(tmp_path / "b"), "--against", str(tmp_path / "a")]) == 1
    lines = capsys.readouterr().out.splitlines()
    changed = lines[lines.index(f"against {tmp_path / 'a'}: 7 changed") + 1:]
    assert changed[0].startswith(
        "halfeig/console.txt: 1 of 4 lines differ, first at line 3: 'lambda1=")
    assert changed[1] == "halfeig/halfeig.json: largest relative change 0.5"
    assert [line.split(":")[0] for line in changed[2:4]] == [
        "halfeig/halfeig_v1.csv", "halfeig/halfeig_v2.csv"]
    assert changed[4:] == ["halfeig/run_meta.json: largest relative change 0.5",
                           "spectrum/run_meta.json: largest relative change 0.4",
                           "spectrum/spectrum.csv: 15 -> 9 numbers"]


def test_files_only_one_run_has_are_listed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(outputs, "MATRIX", TWO_RUNS)
    outputs.main(["--out", str(tmp_path / "a")])
    monkeypatch.setattr(outputs, "MATRIX", TWO_RUNS[1:])
    capsys.readouterr()
    assert outputs.main(["--out", str(tmp_path / "b"), "--against", str(tmp_path / "a")]) == 1
    out = capsys.readouterr().out
    assert "3 changed\n" in out
    assert f"spectrum/spectrum.csv: only in {tmp_path / 'a'}\n" in out


def test_text_change_gives_the_count_and_first_differing_lines(tmp_path):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("exit 0\nINFO seed(k=2)\nsame\n")
    new.write_text("exit 0\nINFO seed(k=2, a=1)\nsame\nextra\n")
    assert outputs.line_change(old, new) == (
        "2 of 4 lines differ, first at line 2: 'INFO seed(k=2)' -> 'INFO seed(k=2, a=1)'")
    assert outputs.line_change(new, old).endswith("'INFO seed(k=2, a=1)' -> 'INFO seed(k=2)'")
    new.write_text("exit 0\nINFO seed(k=2)\nsame\nextra\n")
    assert outputs.line_change(old, new) == (
        "1 of 4 lines differ, first at line 4: (no line) -> 'extra'")
    # line endings alone: the bytes differ, the lines do not
    new.write_bytes(old.read_bytes().replace(b"\n", b"\r\n"))
    assert outputs.line_change(old, new) == "changed"


def test_largest_change_of_equal_special_values_is_zero():
    nan, inf = float("nan"), float("inf")
    assert outputs.largest_change([nan, inf, 0.0, 2.0], [nan, inf, 0.0, 2.0]) == 0.0
    assert outputs.largest_change([1.0, -4.0], [1.5, -5.0]) == 0.5


def test_out_must_be_new_or_empty(tmp_path, monkeypatch):
    monkeypatch.setattr(outputs, "MATRIX", TWO_RUNS[:1])
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "stale.csv").write_text("1\n")
    with pytest.raises(SystemExit):
        outputs.main(["--out", str(tmp_path / "a")])
    with pytest.raises(SystemExit):
        outputs.main(["--out", str(tmp_path / "b"), "--against", str(tmp_path / "c")])
    assert not (tmp_path / "b").exists()
