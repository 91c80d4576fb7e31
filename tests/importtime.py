"""Wall time of one-shot processes: the interpreter, the imports, and CLI calls.

    python3 tests/importtime.py [--runs 21] [--src DIR --src DIR ...]

Starts each process of PROCESSES --runs times in a fresh interpreter and
prints, per process and source tree, the median and quartiles of its wall
time in ms. Each --src is a directory holding a fucik_branch package (by
default the src/ next to this directory); give two, say an earlier commit's
and this one's, to compare them under the same machine load. The runs
alternate over the processes and trees, one of each in turn, after one
untimed run of each that leaves bytecode behind unless PYTHONDONTWRITEBYTECODE
is set. BLAS is held to one thread, and each CLI call writes into a fresh
temporary directory. Pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CLI = "from fucik_branch.cli import main; main()"
# (name, arguments to python3); the CLI calls take their subcommand's defaults
PROCESSES = [
    ("python3 -c pass", ["-c", "pass"]),
    ("numpy, argparse, logging, json, pathlib",
     ["-c", "import numpy, argparse, logging, json, pathlib"]),
    ("import fucik_branch.cli", ["-c", "import fucik_branch.cli"]),
    ("halfeig --k 2 --gamma 0.5 --grid-n 399",
     ["-c", CLI, "halfeig", "--k", "2", "--gamma", "0.5", "--grid-n", "399"]),
    ("fucik", ["-c", CLI, "fucik"]),
    ("branch --p 3 --k 2 --gamma 0.5", ["-c", CLI, "branch", "--p", "3", "--k", "2",
                                        "--gamma", "0.5"]),
]


def run_once(args: list[str], src: Path) -> float:
    """Wall seconds of one process, which must exit with status 0."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, *args]
        if args[1] == CLI:
            argv += ["--output-dir", out]
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=out, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=21, help="timed runs of each process")
    ap.add_argument("--src", type=Path, action="append",
                    help="directory holding fucik_branch (repeatable)")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    srcs = [p.resolve() for p in args.src or [Path(__file__).resolve().parents[1] / "src"]]
    for src in srcs:
        if not (src / "fucik_branch" / "__init__.py").is_file():
            ap.error(f"no fucik_branch package in {src}")

    cases = [(name, proc, src) for name, proc in PROCESSES for src in srcs]
    for _, proc, src in cases:
        run_once(proc, src)
    times: dict[tuple[str, Path], list[float]] = {(name, src): [] for name, _, src in cases}
    for _ in range(args.runs):
        for name, proc, src in cases:
            times[name, src].append(run_once(proc, src))

    print(f"wall ms over {args.runs} runs: median [quartiles]")
    for name, _, src in cases:
        q1, q2, q3 = statistics.quantiles([t * 1e3 for t in times[name, src]], n=4)
        label = f"{name}  ({src})" if len(srcs) > 1 else name
        print(f"  {q2:7.1f} [{q1:6.1f}, {q3:6.1f}]  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
