"""End-to-end run: the program serves from its own process; this one drives it.

``server.py`` serves the deployment over the bundled HTTP server.  This
process is the load generator: the gateway's own keep-alive client
(``repro.gateway.client.GatewayClient``) on one connection for reads, plus,
for ``live``, a writer task on a second connection of the same event loop.
Every run does the same phases:

1. set-up in the server process (timed there, ``SETUPS`` times);
2. one flash incident posted with ``apply: true`` on the idle network (the
   controller's first step always sees 0 qps, so this is the in-place
   ``patch``);
3. one untimed warm-up round of the workload's reads;
4. a fixed number of rounds, set by ``--seconds`` (``workloads.rounds``):
   ``point`` reads in a closed loop; ``live`` posts incidents
   one at a time, each with a burst of reads beside its repair, then reads
   once more after the last update;
5. answers checked against the independent oracle, outside the timed region.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracle import ORACLE_REL_TOL, TDOracle, all_finite_nonnegative, plf_value, relative_error
from workloads import (
    DAY_SECONDS,
    DATASET,
    DEPLOYMENT,
    LIVE_READS_PER_INCIDENT,
    NUM_POINTS,
    PROFILES_PER_ROUND,
    Inputs,
    incident_changes,
    percentile,
    rounds,
    update_body,
)

#: Answers held to the oracle per run, profiles per run, and departures at
#: which each checked profile is evaluated.
ORACLE_SAMPLES = 60
PROFILE_SAMPLES = 6
PROFILE_POINTS = 3
#: Seconds the server may take to set up, and the traffic to run, before
#: the run gives up (a run must end within 180 s).
SETUP_TIMEOUT_S = 60.0
TRAFFIC_TIMEOUT_S = 100.0
#: Actions the default AdaptivePolicy must take: in place on the idle
#: network, clone-and-swap under the live reader's traffic.  The first live
#: step's qps is the warm-up's answers over the idle patch and the warm-up
#: (~1,530 answers in ~6 s, ~250 q/s against the 50 q/s veto).
LIVE_WARMUP_ROUNDS = 3
IDLE_ACTION = "patch"
LIVE_ACTION = "clone_swap"
OP_TYPES = ("query", "profile", "batch_item", "update")

UPDATES_PATH = f"/v1/deployments/{DEPLOYMENT}/updates"


class Op:
    """One request: what was asked, when, and what came back.

    ``request`` is ``(s, t, d)`` for a query, ``(s, t)`` for a profile, a
    list of ``(s, t, d)`` for a batch, and ``[(edge, delay), ...]`` for an
    update.  ``answer`` is filled in by ``_decode`` after the run.
    """

    __slots__ = ("kind", "request", "start", "end", "status", "body",
                 "items", "failed", "answer", "timed")

    def __init__(self, kind: str, request, timed: bool = True) -> None:
        self.kind = kind
        self.request = request
        self.start = self.end = 0.0
        self.status = 0
        self.body = b""
        self.items = len(request) if kind == "batch" else 1
        self.failed = 0
        self.answer = None
        #: False for the reads after the last live update, which are
        #: checked but not part of the metrics.
        self.timed = timed

    @property
    def latency(self) -> float:
        return self.end - self.start


async def send(client, op: Op, path: str, payload: dict) -> Op:
    op.start = time.perf_counter()
    response = await client.request("POST", path, payload=payload)
    op.end = time.perf_counter()
    op.status, op.body = response.status, response.body
    return op


class Server:
    """The server process: started, read from, stopped and always reaped."""

    def __init__(self, root: Path, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        # Clone-swap snapshots go through tempfile: keep them in the work dir.
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(workdir / "tmp")
        self._proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "server.py"),
             "--workdir", str(workdir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(root),
        )

    def read_json(self, timeout: float) -> dict:
        with selectors.DefaultSelector() as selector:
            selector.register(self._proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise TimeoutError("server sent nothing in time")
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited early (code {self._proc.poll()})")
        return json.loads(line)

    def stop(self) -> dict:
        self._proc.stdin.write(b"stop\n")
        self._proc.stdin.flush()
        final = self.read_json(60.0)
        self._proc.wait(30.0)
        return final

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait(30.0)


def run(workload: str, seed: int, seconds: float, root: Path, workdir: Path) -> dict:
    from repro.datasets import load_dataset

    graph = load_dataset(DATASET, num_points=NUM_POINTS)
    baseline = {(u, v): (w.times.tolist(), w.costs.tolist()) for u, v, w in graph.edges()}
    inputs = Inputs(graph.vertices(), baseline, seed)
    count = rounds(workload, seconds)
    server = Server(root, workdir)
    try:
        ready = server.read_json(SETUP_TIMEOUT_S)
        first, ops, window, checks = asyncio.run(asyncio.wait_for(
            _traffic(workload, ready["port"], inputs, count, seed, baseline),
            TRAFFIC_TIMEOUT_S))
        final = server.stop()
    finally:
        server.kill()
    return _result(workload, ready, final, first, ops, window, checks)


async def _traffic(workload: str, port: int, inputs: Inputs, count: int, seed: int, baseline):
    """The idle incident, the warm-up, the timed rounds, then the checks."""
    from repro.gateway.client import GatewayClient

    async with GatewayClient("127.0.0.1", port) as conn:
        idle = inputs.incident()
        changes = incident_changes(idle)
        first = await send(conn, Op("update", changes), UPDATES_PATH, update_body(changes))
        if workload == "point":
            await _point_round(conn, inputs)  # warm-up
            ops, window = await _point(conn, inputs, count)
        else:
            # A longer warm-up: these reads are all the first live step's
            # qps probe sees, and they must keep it far above the patch veto.
            for _ in range(LIVE_WARMUP_ROUNDS):
                await _reader_round(conn, inputs)
            async with GatewayClient("127.0.0.1", port) as writer:
                ops, window = await _live(conn, writer, inputs, count, idle)
        checks = await _verify(conn, seed, baseline, [first] + ops)
    return first, ops, window, checks


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
async def _point_round(conn, inputs: Inputs) -> list[Op]:
    ops = []
    for kind, *request in inputs.point_round():
        if kind == "query":
            s, t, d = request
            ops.append(await send(conn, Op("query", (s, t, d)), "/v1/query",
                                  {"source": s, "target": t, "departure": d}))
        else:
            s, t = request
            ops.append(await send(conn, Op("profile", (s, t)), "/v1/profile",
                                  {"source": s, "target": t}))
    return ops


async def _reader_round(conn, inputs: Inputs, timed: bool = True) -> list[Op]:
    """One ``/v1/batch`` request, then PROFILES_PER_ROUND ``/v1/profile`` requests."""
    queries = inputs.batch_request()
    batch = Op("batch", queries, timed)
    ops = [await send(conn, batch, "/v1/batch",
                      {"queries": [{"source": s, "target": t, "departure": d}
                                   for s, t, d in queries]})]
    for _ in range(PROFILES_PER_ROUND):
        s, t = inputs.pair()
        ops.append(await send(conn, Op("profile", (s, t), timed), "/v1/profile",
                              {"source": s, "target": t}))
    return ops


async def _point(conn, inputs: Inputs, count: int):
    ops: list[Op] = []
    start = time.perf_counter()
    for _ in range(count):
        ops.extend(await _point_round(conn, inputs))
    return ops, time.perf_counter() - start


async def _live(conn, writer, inputs: Inputs, count: int, idle):
    """``count`` incidents, each posted with a burst of reads beside its repair.

    For each incident a task posts it on the ``writer`` connection while
    ``conn`` reads LIVE_READS_PER_INCIDENT rounds back to back; then the
    update's response is awaited.  Every timed read thus overlaps a repair.
    One more round after the last update reads the final network.  Returns
    the ops and the summed duration of the read bursts.
    """
    reads: list[Op] = []
    updates: list[Op] = []
    busy = 0.0
    previous = idle
    for _ in range(count):
        incident = inputs.incident()
        changes = incident_changes(incident, previous)
        update = asyncio.create_task(
            send(writer, Op("update", changes), UPDATES_PATH, update_body(changes)))
        started = time.perf_counter()
        for _ in range(LIVE_READS_PER_INCIDENT):
            reads.extend(await _reader_round(conn, inputs))
        busy += time.perf_counter() - started
        updates.append(await update)
        previous = incident
    reads.extend(await _reader_round(conn, inputs, timed=False))
    return reads + updates, busy


# ----------------------------------------------------------------------
# Verification (outside the timed region)
# ----------------------------------------------------------------------
def _decode(op: Op) -> None:
    """Parse a response into ``op.answer``; mark the op failed on any error it carries."""
    if not 200 <= op.status < 300:
        op.failed = op.items
        return
    if op.kind == "profile":
        rows = [json.loads(line) for line in op.body.splitlines() if line.strip()][1:]
        op.answer = ([row["t"] for row in rows], [row["cost"] for row in rows])
        op.failed = int(not rows or not all_finite_nonnegative(op.answer[1]))
        return
    body = json.loads(op.body)
    if op.kind == "query":
        op.answer = body.get("cost")
        op.failed = int(not all_finite_nonnegative([op.answer]))
    elif op.kind == "batch":
        results = body.get("results", [])
        op.answer = [r.get("cost") if "error" not in r else None for r in results]
        bad = sum(1 for c in op.answer if c is None or not all_finite_nonnegative([c]))
        op.failed = bad + max(0, op.items - len(results))
    else:
        op.answer = (body.get("applied") or {}).get("action")


async def _verify(conn, seed: int, baseline, ops: list[Op]) -> dict:
    for op in ops:
        _decode(op)
    updates = sorted((op for op in ops if op.kind == "update"), key=lambda op: op.start)
    for op, action in zip(updates, [IDLE_ACTION] + [LIVE_ACTION] * (len(updates) - 1)):
        if op.answer != action:
            op.failed = 1

    def versions(op: Op) -> range:
        """Network versions ``op``'s answers may come from.

        Version k is the network after the first k updates.  A clone-swap
        serves the old version until its swap, so a read overlapping an
        update may see either side of it, never a mix.
        """
        low = sum(1 for u in updates if u.end <= op.start)
        high = sum(1 for u in updates if u.start < op.end)
        return range(low, high + 1)

    rng = np.random.default_rng([seed, 4])
    reads = [op for op in ops if op.kind in ("query", "batch", "profile") and not op.failed]
    answers = [(op, i) for op in reads if op.kind != "profile" for i in range(op.items)]
    chosen = rng.choice(len(answers), size=min(ORACLE_SAMPLES, len(answers)), replace=False)
    answers = [answers[int(k)] for k in sorted(chosen)]
    profiles = [op for op in reads if op.kind == "profile"]
    chosen = rng.choice(len(profiles), size=min(PROFILE_SAMPLES, len(profiles)), replace=False)
    profiles = [profiles[int(k)] for k in sorted(chosen)]

    # Property: a profile evaluated at d equals the served scalar cost at d,
    # asked now, so only profiles of the network still served qualify.
    final = range(len(updates), len(updates) + 1)
    current = [op for op in reads if op.kind == "profile" and versions(op) == final]
    chosen = rng.choice(len(current), size=min(PROFILE_SAMPLES, len(current)), replace=False)
    property_checks = property_failures = 0
    for op in (current[int(k)] for k in sorted(chosen)):
        (s, t), (times, costs) = op.request, op.answer
        d = float(rng.uniform(0.0, DAY_SECONDS))
        response = await conn.request(
            "POST", "/v1/query", payload={"source": s, "target": t, "departure": d})
        property_checks += 1
        if (response.status != 200 or relative_error(response.json()["cost"],
                                                     plf_value(times, costs, d)) > ORACLE_REL_TOL):
            property_failures += 1
            op.failed = 1

    # Oracle: each checked answer must match the shadow network of one
    # version it may come from.
    points: list[tuple[Op, int, int, float, float]] = []
    for op, i in answers:
        s, t, d = op.request if op.kind == "query" else op.request[i]
        points.append((op, s, t, d, op.answer if op.kind == "query" else op.answer[i]))
    for op in profiles:
        s, t = op.request
        for d in rng.uniform(0.0, DAY_SECONDS, PROFILE_POINTS):
            points.append((op, s, t, float(d), plf_value(*op.answer, float(d))))
    shadows = _shadows(baseline, updates, max((versions(op).stop for op, *_ in points), default=1))
    oracle_failures = 0
    worst = 0.0
    for op, s, t, d, served in points:
        error = min(relative_error(served, shadows[v].cost(s, t, d)) for v in versions(op))
        worst = max(worst, error)
        if error > ORACLE_REL_TOL:
            oracle_failures += 1
            op.failed = max(op.failed, 1)
    return {
        "oracle": (len(points), oracle_failures),
        "property": (property_checks, property_failures),
        "oracle_max_rel_error": worst,
        "actions": [op.answer for op in updates],
    }


def _shadows(baseline, updates: list[Op], count: int) -> list[TDOracle]:
    """Oracles over the network after 0, 1, ... ``count - 1`` updates."""
    shadows = []
    current = dict(baseline)
    for k in range(count):
        if k:
            for edge, delay in updates[k - 1].request:
                times, costs = baseline[edge]
                current[edge] = (times, [c + delay for c in costs])
        shadows.append(TDOracle(current))
    return shadows


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _result(workload, ready, final, first: Op, ops: list[Op], window: float, checks) -> dict:
    counts = {kind: [0, 0] for kind in OP_TYPES}
    for op in [first] + ops:
        kind = "batch_item" if op.kind == "batch" else op.kind
        counts[kind][0] += op.items
        counts[kind][1] += op.failed
    read_kind = "query" if workload == "point" else "batch"
    reads = [op for op in ops if op.kind == read_kind and op.timed]
    updates = [op.latency for op in ops if op.kind == "update"] or [first.latency]
    metrics = {
        "setup_s": (statistics.median(ready["setup_s"]), "s"),
        "index_mb": (ready["index_mb"], "MB"),
        "rss_mb": (final["rss_mb"], "MB"),
        "read_p50_ms": (percentile([op.latency * 1e3 for op in reads], 50), "ms"),
        "read_p90_ms": (percentile([op.latency * 1e3 for op in reads], 90), "ms"),
        "answers_per_s": (sum(op.items - op.failed for op in reads) / window, "1/s"),
        "profile_p50_ms": (percentile([op.latency * 1e3 for op in ops
                                       if op.kind == "profile" and op.timed], 50), "ms"),
        # point: the one incident on the idle network.
        "update_p50_s": (statistics.median(updates), "s"),
    }
    oracle_checks, oracle_failures = checks["oracle"]
    property_checks, property_failures = checks["property"]
    print(
        f"{workload}: window {window:.2f} s; attempted/failed "
        + ", ".join(f"{k} {a}/{f}" for k, (a, f) in counts.items())
        + f"; oracle {oracle_checks}/{oracle_failures} (max rel error "
        f"{checks['oracle_max_rel_error']:.2e}); profile-vs-scalar "
        f"{property_checks}/{property_failures}; actions {checks['actions']}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:12.4f} {unit}")
    return {
        "correct": oracle_failures == 0 and property_failures == 0
        and oracle_checks > 0 and property_checks > 0,
        "attempted": sum(a for a, _ in counts.values()),
        "failed": sum(f for _, f in counts.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
