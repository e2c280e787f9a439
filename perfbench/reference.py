"""Reference figures quoted in ``perfbench/README.md``, each measured again on demand.

    python3 perfbench/reference.py batch1   # a batch of one against a scalar query (W-USA)
    python3 perfbench/reference.py cache    # engine cost on fresh and repeated pairs (CAL, W-USA)
    python3 perfbench/reference.py lossy    # the default (lossy) specs against the oracle
    python3 perfbench/reference.py update   # one-edge W-USA update against a build

Run from the repository root.  Single runs: expect the spread the README
states for this kind of machine.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import TDOracle  # noqa: E402
from workloads import DATASET, NUM_POINTS, SPEC, Inputs  # noqa: E402

#: The CAL serving spec the earlier serving benchmarks use.
CAL_SPEC = "td-h2h"


def _graph(name: str):
    from repro.datasets import load_dataset

    return load_dataset(name, num_points=NUM_POINTS)


def _engine(spec: str, graph):
    from repro.api import create_engine

    started = time.perf_counter()
    engine = create_engine(spec, graph)
    return engine, time.perf_counter() - started


def _edges(graph):
    return [(u, v) for u, v, _ in graph.edges()]


def batch1() -> None:
    graph = _graph(DATASET)
    engine, _ = _engine(SPEC, graph)
    inputs = Inputs(graph.vertices(), _edges(graph), seed=1)
    scalar, batch = [], []
    for _ in range(40):
        (s, t), d = inputs.pair(), inputs.departure()
        started = time.perf_counter()
        engine.query(s, t, d)
        scalar.append(time.perf_counter() - started)
        (s, t), d = inputs.pair(), inputs.departure()
        started = time.perf_counter()
        engine.batch_query(np.array([s]), np.array([t]), np.array([d]))
        batch.append(time.perf_counter() - started)
    print(f"{DATASET} {SPEC}, fresh pairs, median of 40: scalar query "
          f"{statistics.median(scalar) * 1e3:.2f} ms, batch of one "
          f"{statistics.median(batch) * 1e3:.2f} ms")


def cache() -> None:
    for name, spec in (("CAL", CAL_SPEC), (DATASET, SPEC)):
        graph = _graph(name)
        engine, _ = _engine(spec, graph)
        inputs = Inputs(graph.vertices(), _edges(graph), seed=1)
        figures: dict[str, list[float]] = {"distinct": [], "fresh": [], "repeated": []}
        for _ in range(3):
            request = inputs.batch_request()
            distinct = [(*inputs.pair(), inputs.departure()) for _ in request]
            for label, queries in (("distinct", distinct), ("fresh", request), ("repeated", request)):
                arrays = [np.array(column) for column in zip(*queries)]
                started = time.perf_counter()
                engine.batch_query(*arrays)
                figures[label].append((time.perf_counter() - started) / len(queries))
        print(f"{name} {spec}: batch_query of {len(request)} queries, median of 3, us/q: "
              f"{statistics.median(figures['distinct']) * 1e6:.1f} on distinct fresh pairs, "
              f"{statistics.median(figures['fresh']) * 1e6:.1f} on {len(request) // 10} fresh "
              f"pairs x 10 departures, {statistics.median(figures['repeated']) * 1e6:.1f} "
              "on the same request repeated")


def lossy() -> None:
    for name, specs, count in (("CAL", ("td-h2h", "td-appro", "td-h2h?max_points=none"), 500),
                               (DATASET, ("td-appro", SPEC), 200)):
        graph = _graph(name)
        oracle = TDOracle({(u, v): (w.times.tolist(), w.costs.tolist()) for u, v, w in graph.edges()})
        inputs = Inputs(graph.vertices(), _edges(graph), seed=1)
        queries = [(*inputs.pair(), inputs.departure()) for _ in range(count)]
        truth = [oracle.cost(s, t, d) for s, t, d in queries]
        for spec in specs:
            engine, _ = _engine(spec, graph)
            errors = [(engine.query(s, t, d).cost - c) / c for (s, t, d), c in zip(queries, truth)]
            below = sum(e < -1e-11 for e in errors)
            above = sum(e > 1e-11 for e in errors)
            print(f"{name} {spec}: of {count} queries {below} below the oracle, {above} above; "
                  f"max relative error {max(abs(e) for e in errors):.2e}")


def update() -> None:
    graph = _graph(DATASET)
    engine, build_s = _engine(SPEC, graph)
    incident = Inputs(graph.vertices(), _edges(graph), seed=1).incident()
    change = {(incident.source, incident.target):
              graph.weight(incident.source, incident.target).shift(incident.delay)}
    started = time.perf_counter()
    report = engine.update_edges(change)
    seconds = time.perf_counter() - started
    print(f"{DATASET} {SPEC}: build {build_s:.2f} s; one-edge update "
          f"{(incident.source, incident.target)} +{incident.delay:.0f} s dirtied "
          f"{report.num_dirty_vertices} of {graph.num_vertices} vertices, refreshed "
          f"{report.num_refreshed_shortcut_pairs} shortcut pairs, took {seconds:.2f} s")


def main() -> int:
    figures = {"batch1": batch1, "cache": cache, "lossy": lossy, "update": update}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("figure", choices=figures)
    figures[parser.parse_args().figure]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
