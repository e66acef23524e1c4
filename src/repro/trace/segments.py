"""The replay record stream and the segment kernel of the vector engines.

Every dynamic replay, on either engine, reads time-ordered column
batches built here (:func:`data_columns`, :func:`process_columns`,
:func:`merge_streams`) or by :func:`repro.trace.tlbsim.merged_tlb_stream`,
which streams the same merge chunk by chunk.

Both vector engines — data pages (:mod:`repro.trace.fastpath`) and
page-table pages (:mod:`repro.ptpol.fastpath`) — replay a cost stream
merged with a counter-driving stream, cut it into reset-interval
segments, sub-replay the few records a policy decision can touch and
account every other ("cold") record in bulk against state that is
constant over the segment.  This module holds the pieces of that
machinery the engines share; a new vector engine builds on it rather
than re-deriving it.

Every bulk sum here adds integer addends far below 2**53, where float64
addition is exact, so bulk results are byte-identical to the scalar
cores' per-record accumulation in any order.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import TraceError
from repro.obs.events import MissServiced


def check_same_workload(cost, driver) -> None:
    """Reject a driver trace recorded from a different workload."""
    if cost.meta is not driver.meta and cost.meta is not None:
        if driver.meta is not None and cost.meta.name != driver.meta.name:
            raise TraceError(
                "cost and driver traces are from different workloads"
            )


def data_columns(trace) -> Tuple[np.ndarray, ...]:
    """A trace's ``(times, cpus, pages, weights, is_write)`` columns."""
    return trace.time_ns, trace.cpu, trace.page, trace.weight, trace.is_write


def process_columns(trace) -> Tuple[np.ndarray, ...]:
    """``(times, cpus, pids, pages, weights, is_write)``: the data
    columns plus each record's process, as the PT replay reads them."""
    return (
        trace.time_ns, trace.cpu, trace.process, trace.page, trace.weight,
        trace.is_write,
    )


def merge_streams(
    cost: Sequence[np.ndarray], driver: Sequence[np.ndarray]
) -> Tuple[np.ndarray, ...]:
    """Merge two aligned column tuples (times first) in time order.

    The sort is stable with the cost block first, so at equal
    timestamps cost records precede driver records and driver records
    keep their derivation order — the tie rule of a per-record
    two-pointer merge that takes the cost record while its timestamp is
    not greater.  Returns the merged columns followed by the cost mask (True
    for records from ``cost``).
    """
    times = np.concatenate([cost[0], driver[0]])
    order = np.argsort(times, kind="stable")
    costmask = np.zeros(len(times), dtype=bool)
    costmask[: len(cost[0])] = True
    return (
        times[order],
        *(np.concatenate([c, d])[order] for c, d in zip(cost[1:], driver[1:])),
        costmask[order],
    )


def interval_segments(
    times: np.ndarray, interval: int
) -> List[Tuple[int, int, int]]:
    """Cut a time-ordered batch where ``times // interval`` changes.

    Returns ``(start, end, interval_id)`` per segment: counters reset
    exactly at these cuts, so no segment spans a reset.
    """
    iids = times // interval
    change = np.flatnonzero(iids[1:] != iids[:-1]) + 1
    cuts = [0, *change.tolist(), len(times)]
    return [(s, e, int(iids[s])) for s, e in zip(cuts[:-1], cuts[1:])]


def pair_sums(major: np.ndarray, minor: np.ndarray, n_minor: int, weights):
    """Per-``(major, minor)`` sums of ``weights``, e.g. per (page, CPU).

    Returns ``(majors, minors, sums)`` over the distinct pairs, sorted
    major-first; ``sums`` is float64 (exact for integer weights).
    """
    keys, inv = np.unique(major * n_minor + minor, return_inverse=True)
    return keys // n_minor, keys % n_minor, np.bincount(inv, weights=weights)


def cold_stall(weights: np.ndarray, local: np.ndarray, local_ns, remote_ns):
    """Bulk stall of records whose locality is fixed for the segment.

    Returns ``(total_weight, local_weight, stall_ns, local_stall_ns)``.
    """
    total_w = int(weights.sum())
    local_w = int(weights[local].sum())
    local_stall = local_w * local_ns
    return (
        total_w, local_w,
        float(local_stall + (total_w - local_w) * remote_ns),
        float(local_stall),
    )


def charge_cold(result, weights, local, local_ns, remote_ns) -> float:
    """Charge cold misses to ``result``; returns their local stall."""
    total_w, local_w, stall, local_stall = cold_stall(
        weights, local, local_ns, remote_ns
    )
    result.total_misses += total_w
    result.local_misses += local_w
    result.stall_ns += stall
    return local_stall


def emit_cold_misses(
    em, gidx, times, cpus, pages, weights, serving, local,
    local_ns, remote_ns,
    process: Optional[np.ndarray] = None,
    walk: bool = False,
) -> None:
    """One :class:`MissServiced` per cold record, keyed by stream index.

    ``gidx`` holds each record's global stream index, which orders the
    batched emitter's flush; the other arrays are aligned with it.
    ``process`` and ``walk`` keep their event defaults when not given.
    """
    lat_l, lat_r = float(local_ns), float(remote_ns)
    em.phase = None
    emit = em.emit
    rows = zip(
        gidx.tolist(), times.tolist(), cpus.tolist(), pages.tolist(),
        weights.tolist(), serving.tolist(), local.tolist(),
        repeat(-1) if process is None else process.tolist(),
    )
    for g, t, cpu, page, w, node, loc, pid in rows:
        em.index = g
        emit(
            MissServiced(
                t=t, cpu=cpu, page=page, node=node, weight=w,
                latency_ns=lat_l if loc else lat_r,
                remote=not loc, process=pid, walk=walk,
            )
        )


def write_back_counts(
    bank, pages, cpus, sums, write_pages, write_weights
) -> None:
    """Record cold per-(page, CPU) counter sums and write sums in ``bank``.

    ``pages``/``cpus``/``sums`` are :func:`pair_sums` output;
    ``write_pages``/``write_weights`` are the cold counted write records.
    """
    record = bank.record
    for page, cpu, s in zip(
        pages.tolist(), cpus.tolist(), sums.astype(np.int64).tolist()
    ):
        record(page, cpu, s, False)
    if len(write_pages):
        wu, winv = np.unique(write_pages, return_inverse=True)
        wsums = np.bincount(winv, weights=write_weights).astype(np.int64)
        add_writes = bank.add_writes
        for page, s in zip(wu.tolist(), wsums.tolist()):
            add_writes(page, s)
