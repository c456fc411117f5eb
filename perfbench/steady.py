"""Steadiness check: two sets of benchmark runs, compared against BENCHMARK.json.

    python3 perfbench/steady.py                        # every workload, 2 sets of 5 runs
    python3 perfbench/steady.py --workloads selftest --runs 3 --seconds 10

Runs ``run.py --trace 0`` once per seed, every run with its own seed, and
for each workload and end-to-end metric prints the median, quartiles and
spread ((q3 - q1) / median, quartiles as ``statistics.quantiles(n=4)``
gives them) of each set and of all runs together, plus how far the second
set's median moved from the first's, in either direction.  A metric is
``ok`` when the spread of each set and of all runs stays within its
bound and the median moved by no more than the bound; the share of
failed operations must be the same in both sets.
The exit code is 0 only if every workload is steady.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--runs", type=int, default=5, help="runs per set (at least 2)")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args(argv)
    # end children too when stopped: SystemExit unwinds through their cleanup
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    steady = True
    seed = args.first_seed
    for workload in workloads:
        first = [run_once(workload, seed + i, seconds) for i in range(args.runs)]
        second = [run_once(workload, seed + args.runs + i, seconds) for i in range(args.runs)]
        seed += 2 * args.runs
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (first, second)]
        print(f"== {workload}: 2 sets of {args.runs} runs, {seconds} s each, "
              f"failed share {shares[0]} and {shares[1]}")
        steady &= shares[0] == shares[1] and all(r["correct"] for r in first + second)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, ok = [], True
            for label, runs in (("set 1", first), ("set 2", second), ("all", first + second)):
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                ok &= sp <= bound
                print(f"  {name:14s} {label:6s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {sp:.2%} (bound {bound:.0%}, a third {bound / 3:.2%})")
            moved = abs(medians[1] - medians[0]) / medians[0]
            ok &= moved <= bound
            steady &= ok
            print(f"  {name:14s} median moved {moved:.2%} from set 1 to set 2: "
                  f"{'ok' if ok else 'NOT STEADY'}")
    print("steady" if steady else "NOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
