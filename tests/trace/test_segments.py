"""Unit tests for the segment kernel shared by both vector engines.

Each kernel function is checked against a per-record reference — the
way the scalar cores account the same records one at a time — so a
fault in the shared kernel shows here, not only as a divergence in the
differential suites.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.machine.directory import MissCounterBank
from repro.obs.batch import BatchEmitter
from repro.obs.tracer import ListSink, Tracer
from repro.trace.segments import (
    charge_cold,
    check_same_workload,
    cold_stall,
    emit_cold_misses,
    interval_segments,
    merge_streams,
    pair_sums,
    write_back_counts,
)


def columns(rng, n, t_max=50):
    """Time-sorted ``(times, cpus, weights, is_write)``; ties are common."""
    return (
        np.sort(rng.integers(0, t_max, size=n)),
        rng.integers(0, 4, size=n),
        rng.integers(1, 9, size=n),
        rng.random(n) < 0.3,
    )


def two_pointer_merge(cost, driver):
    """The scalar merge: cost records win timestamp ties."""
    rows, i, j = [], 0, 0
    while i < len(cost[0]) or j < len(driver[0]):
        if j == len(driver[0]) or (i < len(cost[0]) and cost[0][i] <= driver[0][j]):
            rows.append(tuple(c[i] for c in cost) + (True,))
            i += 1
        else:
            rows.append(tuple(d[j] for d in driver) + (False,))
            j += 1
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_merge_streams_matches_two_pointer_merge(seed):
    rng = np.random.default_rng(seed)
    cost, driver = columns(rng, 200), columns(rng, 150)
    merged = merge_streams(cost, driver)
    assert [m.dtype for m in merged] == [c.dtype for c in cost] + [np.dtype(bool)]
    assert list(zip(*(m.tolist() for m in merged))) == [
        tuple(x.item() for x in row[:-1]) + (row[-1],)
        for row in two_pointer_merge(cost, driver)
    ]


@pytest.mark.parametrize("n_cost,n_driver", [(0, 30), (30, 0), (0, 0)])
def test_merge_streams_with_an_empty_side(n_cost, n_driver):
    rng = np.random.default_rng(0)
    cost, driver = columns(rng, n_cost), columns(rng, n_driver)
    times, cpus, weights, is_write, costmask = merge_streams(cost, driver)
    side = cost if n_cost else driver
    for got, want in zip((times, cpus, weights, is_write), side):
        assert got.tolist() == want.tolist()
    assert costmask.tolist() == [bool(n_cost)] * (n_cost + n_driver)


@pytest.mark.parametrize("seed", range(6))
def test_interval_segments_cut_at_every_reset(seed):
    rng = np.random.default_rng(seed)
    interval = int(rng.integers(1, 20))
    times = np.sort(rng.integers(0, 400, size=300))
    segments = interval_segments(times, interval)
    assert segments[0][0] == 0 and segments[-1][1] == len(times)
    for (s, e, iid), (s2, _, iid2) in zip(segments, segments[1:]):
        assert e == s2 and iid2 > iid
    for s, e, iid in segments:
        assert s < e
        assert (times[s:e] // interval == iid).all()


@pytest.mark.parametrize(
    "times,interval,want",
    [
        ([7], 10, [(0, 1, 0)]),
        ([0, 3, 9], 10, [(0, 3, 0)]),
        ([9, 10, 19, 20, 45], 10, [(0, 1, 0), (1, 3, 1), (3, 4, 2), (4, 5, 4)]),
    ],
)
def test_interval_segments_edges(times, interval, want):
    assert interval_segments(np.array(times), interval) == want


@pytest.mark.parametrize("n_minor", [1, 4, 16])
@pytest.mark.parametrize("seed", range(3))
def test_pair_sums_matches_per_record_sum(seed, n_minor):
    rng = np.random.default_rng(seed)
    major = rng.integers(0, 40, size=500)
    minor = rng.integers(0, n_minor, size=500)
    weights = rng.integers(1, 9, size=500)
    want = {}
    for a, b, w in zip(major.tolist(), minor.tolist(), weights.tolist()):
        want[a, b] = want.get((a, b), 0) + w
    majors, minors, sums = pair_sums(major, minor, n_minor, weights)
    assert sums.dtype == np.float64
    assert list(zip(majors.tolist(), minors.tolist())) == sorted(want)
    assert sums.tolist() == [want[k] for k in sorted(want)]


@pytest.mark.parametrize("seed", range(4))
def test_cold_stall_matches_per_record_charge(seed):
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 9, size=300)
    local = rng.random(300) < 0.5
    stall = local_stall = 0.0
    for w, loc in zip(weights.tolist(), local.tolist()):
        stall += w * (300 if loc else 1200)
        local_stall += w * 300 if loc else 0
    total_w, local_w, got_stall, got_local = cold_stall(weights, local, 300, 1200)
    assert (total_w, local_w) == (int(weights.sum()), int(weights[local].sum()))
    assert (got_stall, got_local) == (stall, local_stall)


@pytest.mark.parametrize("local", [[], [True, True], [False, False]])
def test_cold_stall_edges(local):
    weights = np.array([3, 5][: len(local)], dtype=np.int64)
    total_w, local_w, stall, local_stall = cold_stall(
        weights, np.array(local, dtype=bool), 300, 1200
    )
    assert total_w == sum(weights.tolist())
    assert local_w == (total_w if all(local) else 0)
    assert stall == local_w * 300 + (total_w - local_w) * 1200
    assert local_stall == local_w * 300


def test_charge_cold_adds_to_the_result():
    result = SimpleNamespace(total_misses=10, local_misses=4, stall_ns=100.0)
    got = charge_cold(result, np.array([2, 3]), np.array([True, False]), 300, 1200)
    assert got == 600.0
    assert (result.total_misses, result.local_misses) == (15, 6)
    assert result.stall_ns == 100.0 + 600 + 3 * 1200


def emit_three(process=None, walk=False):
    sink = ListSink()
    em = BatchEmitter(Tracer(sinks=[sink]), {})
    emit_cold_misses(
        em, np.array([9, 2, 5]), np.array([30, 10, 20]), np.array([1, 0, 3]),
        np.array([7, 8, 7]), np.array([2, 1, 4]), np.array([0, 2, 1]),
        np.array([True, False, False]), 300, 1200, process=process, walk=walk,
    )
    em.flush()
    return sink.events


def test_emit_cold_misses_flushes_in_stream_index_order_with_defaults():
    events = emit_three()
    assert [(e.t, e.cpu, e.page, e.weight, e.node) for e in events] == [
        (10, 0, 8, 1, 2), (20, 3, 7, 4, 1), (30, 1, 7, 2, 0),
    ]
    assert [(e.latency_ns, e.remote) for e in events] == [
        (1200.0, True), (1200.0, True), (300.0, False),
    ]
    assert all(e.process == -1 and not e.walk for e in events)


def test_emit_cold_misses_passes_process_and_walk():
    events = emit_three(process=np.array([5, 6, 7]), walk=True)
    assert [e.process for e in events] == [6, 7, 5]
    assert all(e.walk for e in events)


@pytest.mark.parametrize("seed", range(4))
def test_write_back_counts_matches_per_record_recording(seed):
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, 30, size=400)
    cpus = rng.integers(0, 4, size=400)
    weights = rng.integers(1, 9, size=400)
    writes = rng.random(400) < 0.3 if seed else np.zeros(400, dtype=bool)
    want, got = MissCounterBank(4), MissCounterBank(4)
    for p, c, w, wr in zip(pages.tolist(), cpus.tolist(), weights.tolist(), writes.tolist()):
        want.record(p, c, w, wr)
    write_back_counts(
        got, *pair_sums(pages, cpus, 4, weights), pages[writes], weights[writes]
    )
    for page in range(30):
        a, b = want.get(page), got.get(page)
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.miss, a.writes) == (b.miss, b.writes)


NAMED = SimpleNamespace(name="engineering")


@pytest.mark.parametrize(
    "cost_meta,driver_meta",
    [
        (NAMED, NAMED),
        (NAMED, SimpleNamespace(name="engineering")),
        (None, SimpleNamespace(name="splash")),
        (NAMED, None),
    ],
    ids=["same-meta", "same-name", "cost-unnamed", "driver-unnamed"],
)
def test_check_same_workload_accepts(cost_meta, driver_meta):
    check_same_workload(SimpleNamespace(meta=cost_meta), SimpleNamespace(meta=driver_meta))


def test_check_same_workload_rejects_another_workload():
    with pytest.raises(TraceError, match="different workloads"):
        check_same_workload(
            SimpleNamespace(meta=NAMED),
            SimpleNamespace(meta=SimpleNamespace(name="splash")),
        )
