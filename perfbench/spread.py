"""Run two sets of benchmark runs per workload and compare them against the bounds.

    python3 perfbench/spread.py                       # every workload
    python3 perfbench/spread.py --workload branch-p15 # one workload (repeatable)

Each run is a separate `perfbench/run.py --trace 0` process of run_seconds
from BENCHMARK.json. The first set uses seeds 1..10, the second 11..20. For
every end-to-end metric, setup_s included, this prints per set the median
and the quartile spread (Q3 - Q1) / median as Python's
statistics.quantiles(n=4) gives them, then how much worse the second set's
median is than the first, each against the metric's bound from
BENCHMARK.json. It also checks that the share of failed operations is
identical in every run. Exit status 1 if any figure is outside its bound or
a run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workload or names:
        sets = []
        for s in range(SETS):
            runs = []
            for seed in range(1 + s * RUNS, 1 + (s + 1) * RUNS):
                res = one_run(workload, seed, spec["run_seconds"])
                print(f"{workload} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                      flush=True)
                ok &= res["correct"] is True
                runs.append(res)
            sets.append(runs)
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        ok &= len(shares) == 1
        print(f"\n{workload}: failed share {sorted(str(s) for s in shares)}"
              f"{'' if len(shares) == 1 else '  <-- differs between runs'}")
        print(f"  {'metric':24s} {'bound':>6s} " + " ".join(
            f"{'median' + str(i + 1):>12s} {'spread' + str(i + 1):>8s}" for i in range(SETS))
            + "   median2 vs median1")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols = []
            meds = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                med, spr = statistics.median(values), spread(values)
                meds.append(med)
                flag = "" if spr <= bound else "!"
                ok &= flag == ""
                cols.append(f"{med:12.5g} {spr:7.3f}{flag or ' '}")
            worse = (meds[1] / meds[0] - 1.0) if m["better"] == "lower" \
                else (meds[0] / meds[1] - 1.0)
            flag = "" if worse <= bound else "!"
            ok &= flag == ""
            print(f"  {name:24s} {bound:6.3f} " + " ".join(cols)
                  + f"   {worse:+.3f} worse{flag}")
        print()
    print("all figures within bounds" if ok else "some figure outside its bound (marked !)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
