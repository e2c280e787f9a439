"""An independent reference for travel-cost answers: time-dependent Dijkstra.

The oracle works on plain breakpoint lists, not on the library's types, so a
fault in the index, its function kernels or its adapters cannot also hide in
the reference.  It imports nothing from ``repro``.

Each directed edge ``(u, v)`` carries a piecewise-linear travel-cost function
given by breakpoints ``times`` (strictly increasing) and ``costs`` (>= 0):
linear between breakpoints, clamped to the first/last cost outside them.  On
such a FIFO network (arrival ``t + f(t)`` never decreases in ``t``) the
earliest arrival at a vertex is also the best departure from it, so the
scalar Dijkstra below is exact.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import Iterable, Mapping, Sequence

__all__ = [
    "ORACLE_REL_TOL",
    "TDOracle",
    "plf_value",
    "relative_error",
    "all_finite_nonnegative",
]

Breakpoints = tuple[Sequence[float], Sequence[float]]

#: How far a served answer may be from the oracle's, relative.  An exact
#: index differs from the oracle only by float summation order (measured
#: <= 1.7e-13 relative); a lossy one by up to ~1e-3.
ORACLE_REL_TOL = 1e-11


def plf_value(times: Sequence[float], costs: Sequence[float], t: float) -> float:
    """Value of the piecewise-linear function through ``(times, costs)`` at ``t``."""
    if t <= times[0]:
        return float(costs[0])
    if t >= times[-1]:
        return float(costs[-1])
    j = bisect_right(times, t) - 1
    t0, t1 = times[j], times[j + 1]
    c0, c1 = costs[j], costs[j + 1]
    return c0 + (c1 - c0) * ((t - t0) / (t1 - t0))


def relative_error(value: float, reference: float) -> float:
    """``|value - reference|`` relative to ``max(|reference|, 1)``."""
    return abs(value - reference) / max(abs(reference), 1.0)


def all_finite_nonnegative(values: Iterable[float]) -> bool:
    """True when every value is a finite number >= 0 (the cost property)."""
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0 for v in values)


class TDOracle:
    """Time-dependent Dijkstra over a mutable table of edge functions.

    ``edges`` maps ``(u, v)`` to ``(times, costs)``.  :meth:`set_edge`
    replaces one function, which is how a shadow copy of the network follows
    the live updates a benchmark posts.
    """

    def __init__(self, edges: Mapping[tuple[int, int], Breakpoints]) -> None:
        self._out: dict[int, dict[int, tuple[list[float], list[float]]]] = {}
        for (u, v), (times, costs) in edges.items():
            self.set_edge(u, v, times, costs)

    def set_edge(
        self, u: int, v: int, times: Sequence[float], costs: Sequence[float]
    ) -> None:
        """Replace (or add) the function of edge ``u -> v``."""
        times = [float(t) for t in times]
        costs = [float(c) for c in costs]
        if not times or len(times) != len(costs):
            raise ValueError(f"edge {(u, v)}: need as many costs as times, at least one")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"edge {(u, v)}: breakpoint times must increase")
        if not all_finite_nonnegative(costs):
            raise ValueError(f"edge {(u, v)}: costs must be finite and >= 0")
        self._out.setdefault(u, {})[v] = (times, costs)
        self._out.setdefault(v, {})

    def edge(self, u: int, v: int) -> tuple[list[float], list[float]]:
        """The current ``(times, costs)`` of edge ``u -> v``."""
        return self._out[u][v]

    def cost(self, source: int, target: int, departure: float) -> float:
        """Least travel cost from ``source`` to ``target`` leaving at ``departure``.

        ``math.inf`` when the target cannot be reached.
        """
        if source not in self._out or target not in self._out:
            raise KeyError(f"unknown vertex in query {(source, target)}")
        arrival = {source: departure}
        settled: set[int] = set()
        heap = [(departure, source)]
        while heap:
            at, u = heapq.heappop(heap)
            if u in settled:
                continue
            if u == target:
                return at - departure
            settled.add(u)
            for v, (times, costs) in self._out[u].items():
                if v in settled:
                    continue
                reach = at + plf_value(times, costs, at)
                if reach < arrival.get(v, math.inf):
                    arrival[v] = reach
                    heapq.heappush(heap, (reach, v))
        return math.inf
