"""Tests of the benchmark's reference oracle, on networks solved by hand.

    python3 -m pytest perfbench/test_oracle.py -q
"""

from __future__ import annotations

import math

import pytest

from oracle import TDOracle, all_finite_nonnegative, plf_value, relative_error

# a -> b costs 10 at every departure; b -> d rises from 5 (t=0) to 50 (t=100);
# a -> c -> d costs 30 + 5 at every departure.
A, B, C, D = 0, 1, 2, 3
DIAMOND = {
    (A, B): ([0.0], [10.0]),
    (B, D): ([0.0, 100.0], [5.0, 50.0]),
    (A, C): ([0.0], [30.0]),
    (C, D): ([0.0], [5.0]),
}


def test_plf_value_interpolates_between_breakpoints_and_clamps_outside():
    times, costs = [10.0, 20.0, 40.0], [4.0, 8.0, 2.0]
    assert plf_value(times, costs, 0.0) == 4.0
    assert plf_value(times, costs, 10.0) == 4.0
    assert plf_value(times, costs, 15.0) == 6.0
    assert plf_value(times, costs, 20.0) == 8.0
    assert plf_value(times, costs, 30.0) == 5.0
    assert plf_value(times, costs, 40.0) == 2.0
    assert plf_value(times, costs, 1e9) == 2.0
    assert plf_value([5.0], [7.0], -3.0) == 7.0


@pytest.mark.parametrize(
    "departure, expected",
    [
        # Via b: reach b at 10, b -> d costs 5 + 45 * 10/100 = 9.5; total 19.5.
        (0.0, 19.5),
        # Via b: reach b at 60, b -> d costs 5 + 45 * 60/100 = 32; total 42 > 35 via c.
        (50.0, 35.0),
        # Via b: reach b at 110, clamped to 50; total 60 > 35 via c.
        (100.0, 35.0),
        # Via b: reach b at 30, b -> d costs 18.5; total 28.5 < 35.
        (20.0, 28.5),
    ],
)
def test_diamond_costs(departure, expected):
    assert TDOracle(DIAMOND).cost(A, D, departure) == pytest.approx(expected, abs=1e-12)


def test_source_equals_target_costs_nothing():
    assert TDOracle(DIAMOND).cost(B, B, 42.0) == 0.0


def test_unreachable_target_is_infinite():
    # Edges are directed: nothing leaves d.
    assert TDOracle(DIAMOND).cost(D, A, 0.0) == math.inf


def test_unknown_vertex_is_rejected():
    with pytest.raises(KeyError):
        TDOracle(DIAMOND).cost(A, 99, 0.0)


def test_set_edge_is_how_the_shadow_network_follows_updates():
    oracle = TDOracle(DIAMOND)
    assert oracle.cost(A, D, 0.0) == pytest.approx(19.5)
    # An incident adds 600 s to b -> d at every departure: the detour wins.
    times, costs = DIAMOND[(B, D)]
    oracle.set_edge(B, D, times, [c + 600.0 for c in costs])
    assert oracle.cost(A, D, 0.0) == pytest.approx(35.0)
    # Clearing restores the baseline function and the answer.
    oracle.set_edge(B, D, times, costs)
    assert oracle.cost(A, D, 0.0) == pytest.approx(19.5)


def test_longer_path_uses_arrival_time_at_each_hop():
    # a -> b -> c, where b -> c is cheap only late: leaving a at 0 reaches b
    # at 50, when b -> c costs 100 - 50 * (50 / 100) = 75; total 125.
    line = {(A, B): ([0.0], [50.0]), (B, C): ([0.0, 100.0], [100.0, 50.0])}
    assert TDOracle(line).cost(A, C, 0.0) == pytest.approx(125.0)


@pytest.mark.parametrize(
    "times, costs",
    [([], []), ([0.0, 1.0], [1.0]), ([1.0, 1.0], [1.0, 2.0]), ([0.0], [-1.0]), ([0.0], [math.nan])],
)
def test_malformed_functions_are_rejected(times, costs):
    with pytest.raises(ValueError):
        TDOracle({(A, B): (times, costs)})


def test_cost_property_and_relative_error():
    assert all_finite_nonnegative([0.0, 1.5, 3])
    assert not all_finite_nonnegative([1.0, -0.5])
    assert not all_finite_nonnegative([math.inf])
    assert not all_finite_nonnegative([None])
    assert relative_error(1000.0 + 1e-9, 1000.0) == pytest.approx(1e-12)
    assert relative_error(0.5, 0.0) == 0.5
