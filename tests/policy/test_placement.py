"""Static placements: RR, FT, PF and the vectorised stall evaluation."""

import numpy as np
import pytest

from repro.policy.placement import (
    first_touch_placement,
    post_facto_placement,
    round_robin_placement,
    static_stall_ns,
)
from repro.trace.record import TraceBuilder


def build(rows):
    b = TraceBuilder()
    for r in rows:
        b.append(*r)
    return b.build()


def node_of_cpu(cpu):
    return cpu  # one CPU per node in these tests


class TestRoundRobin:
    def test_pages_cycle_over_nodes(self):
        trace = build([(0, 0, 0, p, 1) for p in range(8)])
        placement = round_robin_placement(trace, n_nodes=4)
        assert list(placement) == [0, 1, 2, 3, 0, 1, 2, 3]


class TestFirstTouch:
    def test_first_toucher_wins(self):
        trace = build([
            (0, 2, 0, 5, 1),     # cpu 2 touches page 5 first
            (10, 0, 0, 5, 99),   # cpu 0 hammers it later
        ])
        placement = first_touch_placement(trace, 4, node_of_cpu)
        assert placement[5] == 2

    def test_untouched_pages_fall_back_to_rr(self):
        trace = build([(0, 1, 0, 3, 1)])
        placement = first_touch_placement(trace, 4, node_of_cpu)
        assert placement[3] == 1
        assert placement[0] == 0     # page 0 untouched -> RR
        assert placement[2] == 2

    def test_matches_dict_built_first_touch_map(self):
        rng = np.random.default_rng(11)
        n = 400
        rows = [
            (t, int(rng.integers(0, 8)), 0, int(rng.integers(0, 120)), 1)
            for t in range(n)
        ]
        trace = build(rows)
        cpu_node = lambda cpu: cpu // 2  # noqa: E731 - 2 CPUs per node
        placement = first_touch_placement(trace, 4, cpu_node)
        first = {}
        for _, cpu, _, page, _ in rows:
            first.setdefault(page, cpu_node(cpu))
        expected = [first.get(p, p % 4) for p in range(len(placement))]
        assert len(placement) == max(first) + 1
        assert len(first) < len(placement)  # some ids stay untouched
        assert placement.tolist() == expected


class TestPostFacto:
    def test_heaviest_node_wins(self):
        trace = build([
            (0, 0, 0, 7, 10),
            (1, 3, 0, 7, 90),
        ])
        placement = post_facto_placement(trace, 4, node_of_cpu)
        assert placement[7] == 3

    def test_pf_never_worse_than_ft_or_rr(self):
        rng = np.random.default_rng(5)
        rows = [
            (int(t), int(rng.integers(0, 4)), 0, int(rng.integers(0, 30)),
             int(rng.integers(1, 50)))
            for t in range(300)
        ]
        trace = build(rows)
        results = {}
        for name, placement in [
            ("rr", round_robin_placement(trace, 4)),
            ("ft", first_touch_placement(trace, 4, node_of_cpu)),
            ("pf", post_facto_placement(trace, 4, node_of_cpu)),
        ]:
            stall, _ = static_stall_ns(trace, placement, node_of_cpu, 300, 1200)
            results[name] = stall
        assert results["pf"] <= results["ft"]
        assert results["pf"] <= results["rr"]


class TestStaticStall:
    def test_all_local(self):
        trace = build([(0, 1, 0, 0, 10)])
        placement = np.array([1])
        stall, local = static_stall_ns(trace, placement, node_of_cpu, 300, 1200)
        assert stall == 3000
        assert local == 1.0

    def test_all_remote(self):
        trace = build([(0, 1, 0, 0, 10)])
        placement = np.array([2])
        stall, local = static_stall_ns(trace, placement, node_of_cpu, 300, 1200)
        assert stall == 12000
        assert local == 0.0

    def test_mixed(self):
        trace = build([
            (0, 0, 0, 0, 5),
            (1, 1, 0, 0, 5),
        ])
        placement = np.array([0])
        stall, local = static_stall_ns(trace, placement, node_of_cpu, 300, 1200)
        assert stall == 5 * 300 + 5 * 1200
        assert local == pytest.approx(0.5)

    def test_empty_trace(self):
        trace = build([])
        stall, local = static_stall_ns(trace, np.array([0]), node_of_cpu, 300, 1200)
        assert stall == 0.0
        assert local == 0.0
