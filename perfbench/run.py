"""Benchmark entry point: one run of one workload, one JSON line of results.

    python3 perfbench/run.py --workload point|live --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` drives the program over HTTP from
this process and prints the end-to-end metrics; ``--trace 1`` times each
layer's public calls in-process on the same seeded inputs and prints the
per-layer metrics.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files live under
``.perfbench/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the server process is always stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            import layers

            result = layers.run(args.seed, workdir)
        else:
            import e2e

            result = e2e.run(args.workload, args.seed, args.seconds, ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench").rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
