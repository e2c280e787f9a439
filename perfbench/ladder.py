"""The per-layer ladder beside the end-to-end medians it explains.

    python3 perfbench/ladder.py --workload point|live [--seed 1] [--runs 3] [--seconds S]

Runs ``run.py --trace 1`` once (every per-layer metric, timed in-process on
the workload's seeded inputs) and ``run.py --trace 0`` ``--runs`` times (the
end-to-end metrics, tracing off), then prints each layer metric next to the
end-to-end metric it should move and that metric's median on this workload.
Run from the repository root.
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

#: layer metric -> (end-to-end metric it should move, workloads where it should).
EXPLAINS = {
    "engine.query_us": ("read_p50_ms", "point"),
    "engine.batch1_ms": ("read_p50_ms", "point (not live)"),
    "engine.batch_us": ("answers_per_s", "live"),
    "engine.batch_warm_us": ("answers_per_s", "live"),
    "engine.profile_ms": ("profile_p50_ms", "all"),
    "service.lone_ms": ("read_p50_ms", "point"),
    "service.batch_us": ("answers_per_s", "live"),
    "service.avg_batch_size": ("answers_per_s, read_p50_ms", "live, point"),
    "service.cache_hit_rate": ("-", "all (~0 by design)"),
    "host.aquery_ms": ("read_p50_ms", "point"),
    "host.abatch_us": ("answers_per_s", "live"),
    "gateway.asgi_query_ms": ("read_p50_ms", "point"),
    "gateway.asgi_batch_us": ("answers_per_s", "live"),
    "codecs.batch_decode_us": ("answers_per_s", "live"),
    "codecs.batch_encode_us": ("answers_per_s", "live"),
    "build.decompose_s": ("setup_s", "all"),
    "build.catalog_s": ("setup_s", "all"),
    "build.select_s": ("setup_s", "all"),
    "build.total_s": ("setup_s", "all"),
    "persistence.save_s": ("update_p50_s", "live"),
    "persistence.load_s": ("update_p50_s", "live"),
    "update.edges_s": ("update_p50_s", "all (live under reads)"),
    "update.dirty_vertices": ("update_p50_s", "all"),
    "traffic.step_s": ("update_p50_s", "live"),
    "host.swap_s": ("update_p50_s", "live"),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise RuntimeError(f"run.py --trace {trace} failed:\n{out.stderr[-4000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args()

    layers = run(args.workload, args.seed, args.seconds, 1)
    ends = [run(args.workload, args.seed + k, args.seconds, 0) for k in range(args.runs)]
    medians = {
        name: statistics.median(r["metrics"][name]["value"] for r in ends)
        for name in ends[0]["metrics"]
    }
    units = {name: ends[0]["metrics"][name]["unit"] for name in medians}
    print(f"{args.workload}: per-layer metrics (traced run, seed {args.seed}) beside "
          f"end-to-end medians ({args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1})")
    print(f"  {'layer metric':24s} {'value':>12s} {'unit':8s} {'moves':28s} {'on':22s} {'e2e median':>12s}")
    for name, metric in layers["metrics"].items():
        moves, on = EXPLAINS.get(name, ("?", "?"))
        first = moves.split(",")[0]
        e2e = f"{medians[first]:12.4f} {units[first]}" if first in medians else ""
        print(f"  {name:24s} {metric['value']:12.4f} {metric['unit']:8s} {moves:28s} {on:22s} {e2e}")
    for name in medians:
        if not any(moves.split(",")[0] == name for moves, _ in EXPLAINS.values()):
            print(f"  {'(no layer metric)':24s} {'':12s} {'':8s} {name:28s} {'':22s} {medians[name]:12.4f} {units[name]}")
    print(f"  traced run: {layers['attempted']} calls, {layers['failed']} failed; "
          f"end-to-end runs: {sum(r['attempted'] for r in ends)} operations, "
          f"{sum(r['failed'] for r in ends)} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
