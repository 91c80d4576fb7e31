"""Whether a change keeps the package's outputs: a fixed matrix of CLI runs.

    python3 tests/outputs.py --out before            # on the earlier commit
    python3 tests/outputs.py --out after --against before

Runs each command of MATRIX in this process, with BLAS held to one thread,
from inside --out (a new or empty directory) with its own --output-dir, so
that run_meta.json records the same relative directory on every checkout.
Besides the files the CLI writes, each run leaves console.txt: its exit
status, stdout and stderr (the log included). SHA256SUMS in --out lists the
sha256 of every file. With --against, the directory of an earlier run, it
prints the files whose hashes differ or that only one run has, with the
largest relative change of the numbers in each changed CSV or JSON file
that keeps its count of numbers, and for any other changed file the number
of lines that differ and the first of them on each side; it exits with
status 1 when any file changed (0 otherwise). Needs only numpy; it imports the package from the
src/ next to this directory. Pytest does not collect it.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # BLAS threads change the summation order of dot products; pin them
    # before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fucik_branch import cli  # noqa: E402

MANIFEST = "SHA256SUMS"
# (run name, CLI arguments without --output-dir); each run writes to the
# subdirectory of its name
MATRIX = (
    [("spectrum", ["spectrum"])]
    + [(f"halfeig-n{n}", ["halfeig", "--k", "2", "--gamma", "0.5", "--grid-n", str(n)])
       for n in (199, 799, 3199)]
    + [(f"fucik-{fmt}", ["fucik", "--format", fmt]) for fmt in ("csv", "json")]
    + [(f"branch-p{p}-n{n}", ["branch", "--p", p, "--k", "2,3", "--gamma", "0.5",
                              "--grid-n", str(n)])
       for p in ("3", "1.5") for n in (199, 399, 799)]
    + [(f"verify-p{p}-seed{seed}", ["verify", "--p", p, "--seed", str(seed)])
       for p in ("2.5", "3", "4") for seed in (1, 5, 42)]
)


def run_matrix(out: Path) -> None:
    """Run every command of MATRIX inside out and write its console.txt."""
    cwd = Path.cwd()
    os.chdir(out)
    try:
        for name, argv in MATRIX:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = cli.run([*argv, "--output-dir", name])
            Path(name).mkdir(exist_ok=True)
            Path(name, "console.txt").write_text(
                f"exit {status}\n--- stdout\n{stdout.getvalue()}"
                f"--- stderr\n{stderr.getvalue()}", newline="\n")
    finally:
        os.chdir(cwd)


def write_manifest(out: Path) -> dict[str, str]:
    """Hash every file under out into out/MANIFEST; return path -> sha256."""
    digests = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.rglob("*")) if path.is_file()}
    (out / MANIFEST).write_text("".join(f"{d}  {p}\n" for p, d in digests.items()),
                                newline="\n")
    return digests


def read_manifest(out: Path) -> dict[str, str]:
    lines = (out / MANIFEST).read_text().splitlines()
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def numbers(path: Path) -> list[float] | None:
    """The numbers of a CSV (its numeric cells) or JSON file (its numeric
    values), in file order; None for any other file."""
    if path.suffix == ".json":
        found = []

        def walk(x) -> None:
            if isinstance(x, dict):
                for value in x.values():
                    walk(value)
            elif isinstance(x, list):
                for value in x:
                    walk(value)
            elif isinstance(x, (int, float)) and not isinstance(x, bool):
                found.append(float(x))

        walk(json.loads(path.read_text()))
        return found
    if path.suffix == ".csv":
        found = []
        for row in csv.reader(io.StringIO(path.read_text())):
            for cell in row:
                try:
                    found.append(float(cell))
                except ValueError:
                    pass
        return found
    return None


def largest_change(old: list[float], new: list[float]) -> float:
    """Largest |new - old| / |old| over paired numbers; equal NaNs or
    infinities count as no change."""
    worst = 0.0
    for a, b in zip(old, new):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        worst = max(worst, abs(b - a) / max(abs(a), 1e-300))
    return worst


def line_change(old: Path, new: Path) -> str:
    """How two text files differ line by line: the count of line numbers at
    which they differ, and the first such line of each side."""
    a = old.read_text(errors="replace").splitlines()
    b = new.read_text(errors="replace").splitlines()
    differ = [i for i in range(max(len(a), len(b)))
              if i >= len(a) or i >= len(b) or a[i] != b[i]]
    if not differ:  # the bytes differ only in line endings
        return "changed"
    i = differ[0]
    first = [repr(lines[i]) if i < len(lines) else "(no line)" for lines in (a, b)]
    return (f"{len(differ)} of {max(len(a), len(b))} lines differ, "
            f"first at line {i + 1}: {first[0]} -> {first[1]}")


def compare(before: Path, after: Path) -> list[str]:
    """One line per file that differs between the runs in before and after."""
    old, new = read_manifest(before), read_manifest(after)
    lines = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append(f"{path}: only in {before}")
        elif path not in old:
            lines.append(f"{path}: only in {after}")
        elif old[path] != new[path]:
            a, b = numbers(before / path), numbers(after / path)
            if a is None:
                lines.append(f"{path}: {line_change(before / path, after / path)}")
            elif len(a) != len(b):
                lines.append(f"{path}: {len(a)} -> {len(b)} numbers")
            else:
                lines.append(f"{path}: largest relative change {largest_change(a, b):.3g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[2])
    ap.add_argument("--out", type=Path, required=True,
                    help="new or empty directory to run in")
    ap.add_argument("--against", type=Path,
                    help="directory of an earlier run to compare with")
    args = ap.parse_args(argv)
    if args.out.exists() and any(args.out.iterdir()):
        ap.error(f"--out {args.out} is not empty")
    if args.against is not None and not (args.against / MANIFEST).is_file():
        ap.error(f"--against {args.against} has no {MANIFEST}")
    args.out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    run_matrix(args.out)
    files = write_manifest(args.out)
    print(f"{len(MATRIX)} runs, {len(files)} files in {args.out}, "
          f"{time.perf_counter() - start:.1f} s")
    if args.against is None:
        return 0
    changed = compare(args.against, args.out)
    print(f"against {args.against}: {len(changed)} changed")
    print("\n".join(changed))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
