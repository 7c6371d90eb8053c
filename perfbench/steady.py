"""Steadiness mode: repeat workloads over seeds and compare spreads with bounds.

Usage, from the root of a frobcx checkout:

    python3 perfbench/steady.py --workload sequence --runs 10 [--first-seed 1]

For each end-to-end metric of BENCHMARK.json this prints the median of
the runs, and the distance between the first and third quartiles as a
share of the median next to the metric's bound.  A spread should stay
below a third of its bound (setup_s, whose median is compared between
sets of runs rather than its spread, is reported too).  The per-run
results are kept in .perfbench_out/steady-<workload>.json.  With
--workload all, every workload is run in turn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    steady = True
    for workload in names if args.workload == "all" else [args.workload]:
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        (out_dir / f"steady-{workload}.json").write_text(json.dumps(results))
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {args.runs} runs, {attempted} ops, fail_ratio "
              f"{failed / attempted:.4f}, correct={all(r['correct'] for r in results)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            line = (f"  {metric['name']:<14} median {statistics.median(values):<12.6g}"
                    f" {metric['unit']:<6}")
            if len(values) >= 2:
                share = stats.spread(values)
                ok = share < metric["bound"] / 3 or metric["name"] == "setup_s"
                steady &= ok
                line += (f" spread {share:.4f} bound {metric['bound']}"
                         f"{'' if ok else '  <-- above a third of the bound'}")
            print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
