"""Traced run: each layer's public calls, timed in-process on the run's seeded inputs.

The per-layer ladder explains the end-to-end metrics: every figure here is
the cost of one layer's public call on the same kind of input the
end-to-end run sends, from the index build up to the ASGI app without a
socket.  Each layer gets pairs of its own from the seeded stream, so every
call starts cold in the pair-plan and result caches, as in the end-to-end
run.  The calls are the same for every workload and a fixed amount of
work (``--seconds`` does not apply), since every workload draws from the
same seeded streams.  Which end-to-end metric each figure should move is
listed in ``README.md``.  No socket and no second process are involved, so
these numbers never feed the end-to-end metrics.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from pathlib import Path

import numpy as np

from oracle import ORACLE_REL_TOL, TDOracle, relative_error
from workloads import DATASET, DEPLOYMENT, NUM_POINTS, SPEC, Inputs, incident_changes

#: Calls per scalar layer figure (each a fresh pair), profile calls, and
#: fresh batch requests per batch figure; every figure is the median.
SCALAR_SAMPLES = 27
PROFILE_CALLS = 15
BATCH_REQUESTS = 2
CODEC_REPEATS = 5


def _timed(fn, *args):
    started = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - started, value


def _queries(inputs: Inputs, n: int) -> list[tuple[int, int, float]]:
    out = []
    while len(out) < n:
        out.extend(op[1:] for op in inputs.point_round() if op[0] == "query")
    return out[:n]


def _arrays(queries):
    s, t, d = zip(*queries)
    return np.asarray(s, dtype=np.int64), np.asarray(t, dtype=np.int64), np.asarray(d)


def _scope(path: str) -> dict:
    return {"type": "http", "method": "POST", "path": path,
            "headers": [(b"content-type", b"application/json")]}


async def _asgi(app, path: str, body: bytes) -> tuple[int, bytes]:
    sent = []

    async def receive():
        return {"type": "http.request", "body": body, "more_body": False}

    async def send(message):
        sent.append(message)

    await app(_scope(path), receive, send)
    return sent[0]["status"], b"".join(m.get("body", b"") for m in sent[1:])


def run(seed: int, workdir: Path) -> dict:
    from repro.api import create_engine
    from repro.core.selection import select_greedy
    from repro.core.shortcuts import build_shortcut_catalog
    from repro.core.tree_decomposition import decompose
    from repro.datasets import load_dataset
    from repro.gateway import GatewayApp
    from repro.gateway.codecs import json_bytes, parse_batch_payload, parse_json_body
    from repro.persistence import save_index
    from repro.serving import EngineHost, QueryService
    from repro.traffic import TrafficController

    from server import GATEWAY

    graph = load_dataset(DATASET, num_points=NUM_POINTS)
    inputs = Inputs(graph.vertices(), [(u, v) for u, v, _ in graph.edges()], seed)
    m: dict[str, tuple[float, str]] = {}
    attempted = failed = 0

    # Build: the whole build, then its three phases as public calls.
    build_s, engine = _timed(create_engine, SPEC, graph)
    m["build.total_s"] = (build_s, "s")
    seconds_, tree = _timed(lambda: decompose(graph, max_points=None))
    m["build.decompose_s"] = (seconds_, "s")
    seconds_, catalog = _timed(lambda: build_shortcut_catalog(tree, max_points=None))
    m["build.catalog_s"] = (seconds_, "s")
    seconds_, _ = _timed(select_greedy, catalog, engine.statistics().budget)
    m["build.select_s"] = (seconds_, "s")

    # Persistence: the deployed index to disk and back.
    snapshot = workdir / "snapshot"
    seconds_, _ = _timed(lambda: save_index(engine.index, snapshot, engine_spec=SPEC))
    m["persistence.save_s"] = (seconds_, "s")
    seconds_, loaded = _timed(create_engine, f"snapshot:{snapshot}")
    m["persistence.load_s"] = (seconds_, "s")

    # Engine.
    oracle = TDOracle({(u, v): (w.times.tolist(), w.costs.tolist()) for u, v, w in graph.edges()})
    samples = []
    for s, t, d in _queries(inputs, SCALAR_SAMPLES):
        seconds_, route = _timed(engine.query, s, t, d)
        samples.append(seconds_)
        attempted += 1
        if relative_error(route.cost, oracle.cost(s, t, d)) > ORACLE_REL_TOL:
            failed += 1
    m["engine.query_us"] = (statistics.median(samples) * 1e6, "us")
    samples = [_timed(engine.batch_query, *_arrays([q]))[0] for q in _queries(inputs, SCALAR_SAMPLES)]
    attempted += len(samples)
    m["engine.batch1_ms"] = (statistics.median(samples) * 1e3, "ms")
    samples = [_timed(engine.profile, *inputs.pair())[0] for _ in range(PROFILE_CALLS)]
    attempted += len(samples)
    m["engine.profile_ms"] = (statistics.median(samples) * 1e3, "ms")
    per_item, warm = [], []
    for _ in range(BATCH_REQUESTS):
        request = inputs.batch_request()
        arrays = _arrays(request)
        per_item.append(_timed(engine.batch_query, *arrays)[0] / len(request))
        warm.append(_timed(engine.batch_query, *arrays)[0] / len(request))
        attempted += 2 * len(request)
    m["engine.batch_us"] = (statistics.median(per_item) * 1e6, "us/q")
    m["engine.batch_warm_us"] = (statistics.median(warm) * 1e6, "us/q")

    # Service, default configuration.
    service = QueryService(engine)
    try:
        samples = [_timed(lambda q=q: service.submit(*q).result())[0]
                   for q in _queries(inputs, SCALAR_SAMPLES)]
        attempted += len(samples)
        m["service.lone_ms"] = (statistics.median(samples) * 1e3, "ms")
        per_item = []
        for _ in range(BATCH_REQUESTS):
            request = inputs.batch_request()
            seconds_, _ = _timed(lambda: [f.result() for f in [service.submit(*q) for q in request]])
            per_item.append(seconds_ / len(request))
            attempted += len(request)
        m["service.batch_us"] = (statistics.median(per_item) * 1e6, "us/q")
        stats = service.stats()
        m["service.avg_batch_size"] = (stats.avg_batch_size, "queries")
        m["service.cache_hit_rate"] = (stats.cache_hit_rate, "ratio")
    finally:
        service.close()

    host = EngineHost()
    try:
        host.deploy(DEPLOYMENT, engine)
        app = GatewayApp(host, config=GATEWAY)

        async def ladder() -> int:
            errors = 0
            lone = []
            for q in _queries(inputs, SCALAR_SAMPLES):
                started = time.perf_counter()
                await host.aquery(DEPLOYMENT, *q)
                lone.append(time.perf_counter() - started)
            m["host.aquery_ms"] = (statistics.median(lone) * 1e3, "ms")
            per_item = []
            for _ in range(BATCH_REQUESTS):
                request = inputs.batch_request()
                started = time.perf_counter()
                await asyncio.gather(*(host.aquery(DEPLOYMENT, *q) for q in request))
                per_item.append((time.perf_counter() - started) / len(request))
            m["host.abatch_us"] = (statistics.median(per_item) * 1e6, "us/q")
            lone = []
            for s, t, d in _queries(inputs, SCALAR_SAMPLES):
                body = json.dumps({"source": s, "target": t, "departure": d}).encode()
                started = time.perf_counter()
                status, _ = await _asgi(app, "/v1/query", body)
                lone.append(time.perf_counter() - started)
                errors += status != 200
            m["gateway.asgi_query_ms"] = (statistics.median(lone) * 1e3, "ms")
            per_item = []
            for _ in range(BATCH_REQUESTS):
                request = inputs.batch_request()
                body = json.dumps({"queries": [
                    {"source": s, "target": t, "departure": d} for s, t, d in request]}).encode()
                started = time.perf_counter()
                status, reply = await _asgi(app, "/v1/batch", body)
                per_item.append((time.perf_counter() - started) / len(request))
                errors += status != 200 or json.loads(reply)["failed"] != 0
            m["gateway.asgi_batch_us"] = (statistics.median(per_item) * 1e6, "us/q")
            return errors

        failed += asyncio.run(ladder())
        attempted += 2 * SCALAR_SAMPLES + 2 * BATCH_REQUESTS

        # Codecs on one batch request and its response.
        request = inputs.batch_request()
        body = json.dumps({"queries": [
            {"source": s, "target": t, "departure": d} for s, t, d in request]}).encode()
        reply = {"deployment": DEPLOYMENT, "answered": len(request), "failed": 0,
                 "results": [{"cost": c} for c in engine.batch_query(*_arrays(request)).costs.tolist()]}
        decode = [_timed(lambda: parse_batch_payload(parse_json_body(body), max_queries=1024))[0]
                  for _ in range(CODEC_REPEATS)]
        encode = [_timed(json_bytes, reply)[0] for _ in range(CODEC_REPEATS)]
        m["codecs.batch_decode_us"] = (statistics.median(decode) / len(request) * 1e6, "us/q")
        m["codecs.batch_encode_us"] = (statistics.median(encode) / len(request) * 1e6, "us/q")

        # Updates: the idle incident, then one live post (clear it, raise the next).
        first, second = inputs.incident(), inputs.incident()
        posts = [incident_changes(first), incident_changes(second, first)]

        def changes(post):
            return {edge: graph.weight(*edge).shift(delay) if delay else graph.weight(*edge)
                    for edge, delay in post}

        samples, dirty = [], 0
        for post in posts:
            seconds_, report = _timed(loaded.update_edges, changes(post))
            samples.append(seconds_)
            dirty += report.num_dirty_vertices
            attempted += 1
        m["update.edges_s"] = (statistics.median(samples), "s")
        m["update.dirty_vertices"] = (float(dirty), "vertices")

        # Traffic control: the same two steps through the controller.  Reads
        # between them put the live qps above the patch veto, as in ``live``.
        controller = TrafficController(host, DEPLOYMENT, rebuild_spec=SPEC)
        try:
            for edge, delay in posts[0]:
                controller.emit_delay(*edge, delay)
            idle_step = controller.step()
            request = inputs.batch_request()
            host_futures = [host.submit(DEPLOYMENT, *q) for q in request]
            for future in host_futures:
                future.result()
            for edge, delay in posts[1]:
                controller.emit_delay(*edge, delay)
            seconds_, live_step = _timed(controller.step)
        finally:
            controller.close()
        attempted += 2
        failed += (idle_step.action, live_step.action) != ("patch", "clone_swap")
        m["traffic.step_s"] = (seconds_, "s")
        m["host.swap_s"] = (live_step.swap_report.total_seconds, "s")
    finally:
        host.close()

    for name, (value, unit) in sorted(m.items()):
        print(f"  {name:24s} {value:12.4f} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(m.items())},
    }
