"""Steadiness check: run workloads repeatedly on the same code, report the spread.

    python3 perfbench/steady.py [--workloads point live] [--runs 10] [--first-seed 1]
                                [--seconds S]

Runs ``run.py --trace 0`` once per seed (seeds ``first-seed .. first-seed+runs-1``)
for each workload, then prints, per end-to-end metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``,
and the share of failed operations.  A spread above a third of its bound is
flagged.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr[-4000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "" if spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:16s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound:6.3f}{flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
