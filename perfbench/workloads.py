"""Seeded inputs of the workloads, and what every part of the benchmark shares.

Every request a run sends is drawn here, the queries from ``--seed`` and
the incidents from a fixed seed; the served program receives only the
generated requests.  Each kind of input has its own random stream, so the
traced ladder run (``layers.py``) draws its point queries, batch requests
and incidents from the same streams as the end-to-end run of that seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: The paper's largest catalog stand-in: 450 vertices, 202,050 ordered pairs,
#: three times the engine's 65,536-entry pair-plan cache.
DATASET = "W-USA"
#: Interpolation points per edge (the paper's c).
NUM_POINTS = 3
#: The paper's headline method, kept exact so answers can be held to the
#: oracle; the budget stays at the index default (0.3 of candidate weight).
SPEC = "td-appro?max_points=none"
DEPLOYMENT = "prod"
#: Set-ups per end-to-end run; ``setup_s`` is their median, so work moved
#: into set-up shows without one slow set-up deciding the figure.
SETUPS = 3
DAY_SECONDS = 86_400.0

#: ``point``: each round is this many ``/v1/query`` requests, then
#: ``PROFILES_PER_ROUND`` ``/v1/profile`` requests (a 20% profile share).
POINT_QUERIES_PER_ROUND = 8
#: Profiles per round of every workload: enough for a steady median.
PROFILES_PER_ROUND = 2
#: ``live``: one ``/v1/batch`` request is this many fresh pairs, each
#: asked at one departure in each of ``INTERVALS`` equal slices of the day
#: (the paper's Sec. 5 query shape): 510 queries, half the gateway's 1,024
#: limit, so a run holds enough requests for a 90th percentile.
BATCH_PAIRS = 51
INTERVALS = 10
#: ``live``: read rounds sent back to back beside each incident's repair
#: (which takes ~4.5 s of interpreter time; the rounds ~5-6 s beside it).  A reader running for the whole
#: run, closed-loop or paced, mixed reads beside a repair with reads beside
#: nothing in a proportion that changed from run to run, and its figures
#: spread by 20-30% between runs.
LIVE_READS_PER_INCIDENT = 12
#: A run does a fixed amount of work, so the caches end every run in the same
#: state: ``--seconds`` times these rates, measured on a 2-vCPU VM with
#: Python 3.11 (``point`` rounds per second; seconds per ``live`` incident
#: with its read burst).
POINT_ROUNDS_PER_SECOND = 4.5
LIVE_INCIDENT_SECONDS = 7.0
#: Added travel time of a flash incident, seconds (drawn uniformly).
INCIDENT_DELAY_S = (600.0, 1800.0)
#: The incident sequence is drawn from this seed, not from ``--seed``.  A
#: one-edge update on W-USA costs ~0.1-0.6 s or ~5 s depending on the edge
#: (whether the whole selected-shortcut set is refreshed), so per-seed
#: incidents would make update latency bimodal across runs.  The first five
#: incidents of this sequence all take the ~5 s path (4.6-5.2 s each).
INCIDENT_SEED = 0

WORKLOADS = ("point", "live")


def rounds(workload: str, seconds: float) -> int:
    """Rounds of reads (``point``) or incidents (``live``) in one run."""
    if workload == "live":
        return max(1, round(seconds / LIVE_INCIDENT_SECONDS))
    return max(1, math.ceil(seconds * POINT_ROUNDS_PER_SECOND))


@dataclass(frozen=True)
class Incident:
    """One edge that gains ``delay`` seconds of travel time at every departure."""

    source: int
    target: int
    delay: float


class Inputs:
    """The seeded request streams of one run.

    Pairs come from one seeded permutation of every ordered pair, so no pair
    repeats within a run: every query starts cold in the engine's pair-plan
    cache and misses the service's result cache.
    """

    def __init__(self, vertices, edges, seed: int) -> None:
        self._vertices = sorted(int(v) for v in vertices)
        self._edges = sorted((int(u), int(v)) for u, v in edges)
        n = len(self._vertices)
        self._order = np.random.default_rng([seed, 1]).permutation(n * (n - 1))
        self._next_pair = 0
        self._departures = np.random.default_rng([seed, 2])
        self._incidents = np.random.default_rng([INCIDENT_SEED, 3])

    def pair(self) -> tuple[int, int]:
        """The next ordered pair of distinct vertices, never seen before in this run."""
        if self._next_pair >= len(self._order):
            raise RuntimeError("every ordered pair has been used")
        n = len(self._vertices)
        index = int(self._order[self._next_pair])
        self._next_pair += 1
        s, t = divmod(index, n - 1)
        if t >= s:
            t += 1
        return self._vertices[s], self._vertices[t]

    def departure(self) -> float:
        """A departure drawn uniformly over the day."""
        return float(self._departures.uniform(0.0, DAY_SECONDS))

    def point_round(self) -> list[tuple]:
        """``("query", s, t, d)`` x POINT_QUERIES_PER_ROUND, then ``("profile", s, t)`` x PROFILES_PER_ROUND."""
        ops: list[tuple] = []
        for _ in range(POINT_QUERIES_PER_ROUND):
            s, t = self.pair()
            ops.append(("query", s, t, self.departure()))
        ops.extend(("profile", *self.pair()) for _ in range(PROFILES_PER_ROUND))
        return ops

    def batch_request(self) -> list[tuple[int, int, float]]:
        """Fresh pairs x one departure per interval of the day."""
        width = DAY_SECONDS / INTERVALS
        queries = []
        for _ in range(BATCH_PAIRS):
            s, t = self.pair()
            for k in range(INTERVALS):
                d = float(self._departures.uniform(k * width, (k + 1) * width))
                queries.append((s, t, d))
        return queries

    def incident(self) -> Incident:
        """The next one-edge flash incident of the fixed sequence.

        One edge keeps the structural dirty-cone estimate of every incident on
        W-USA at <= 37 of 450 vertices (checked over all 1,492 edges), under
        the default policy's 10% patch threshold, so the action each control
        step takes does not depend on the seed.
        """
        u, v = self._edges[int(self._incidents.integers(len(self._edges)))]
        low, high = INCIDENT_DELAY_S
        return Incident(u, v, float(self._incidents.uniform(low, high)))


def incident_changes(incident: Incident, previous: Incident | None = None) -> list:
    """``[((source, target), delay), ...]``: clear ``previous`` (delay 0), raise ``incident``.

    Applied in order, so an incident on the edge it clears still ends raised.
    """
    changes = [] if previous is None else [((previous.source, previous.target), 0.0)]
    return changes + [((incident.source, incident.target), incident.delay)]


def update_body(changes: list) -> dict:
    """The ``/updates`` payload of ``changes``, applied synchronously."""
    return {
        "updates": [{"source": u, "target": v, "delay": delay} for (u, v), delay in changes],
        "apply": True,
    }


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100] of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
