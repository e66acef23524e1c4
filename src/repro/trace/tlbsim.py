"""Derive a TLB-miss trace from a cache-miss trace (Section 8.3).

"The miss behavior of the TLB can be modelled as a cache with the line
size being a page" — we run each CPU's page-touch stream through a real
64-entry LRU TLB.  A weighted cache-miss record stands for a *burst* of
misses to one page; the burst touches the TLB once on entry, and — when
the page's working set exceeds the TLB reach between successive misses —
re-touches it during the burst.  That intra-burst behaviour is summarised
by the page group's ``tlb_factor`` (TLB misses emitted per cache miss once
the page is not TLB-resident):

* hot *code* pages loop tightly inside a handful of pages, so they suffer
  enormous cache-miss counts with almost no TLB misses (factor ~0.01) —
  the mechanism behind TLB information failing on the engineering
  workload;
* sparse *data* sweeps change pages as fast as they miss, so their TLB
  miss counts track their cache-miss counts much more closely.

The derived trace keeps the original timestamps, so reset intervals align
between the two streams.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.common.errors import TraceError
from repro.machine.config import TlbConfig
from repro.machine.tlb import Tlb
from repro.trace.record import FLAG_INSTR, FLAG_KERNEL, Trace, TraceBuilder
from repro.trace.segments import data_columns, merge_streams

DEFAULT_TLB_FACTOR = 0.3


class TlbTraceDeriver:
    """Stateful TLB-miss derivation, one chunk of cache misses at a time.

    The per-CPU TLB contents and the per-page factor cache survive
    across :meth:`feed` calls, so feeding a trace chunk by chunk (for
    example from :meth:`repro.store.ContainerReader.iter_chunks`)
    produces exactly the records :func:`derive_tlb_trace` would emit
    for the concatenated trace — with only one chunk's cache-miss
    columns live at a time.
    """

    def __init__(
        self,
        n_cpus: int,
        tlb_config: Optional[TlbConfig] = None,
        factor_of_page: Optional[Callable[[int], float]] = None,
    ) -> None:
        self.n_cpus = int(n_cpus)
        self._tlbs = [Tlb(tlb_config) for _ in range(self.n_cpus)]
        self._factor_of_page = factor_of_page
        self._factor_cache: dict = {}

    def _resolve_factor(self, chunk: Trace) -> Callable[[int], float]:
        if self._factor_of_page is None:
            if chunk.meta is not None:
                self._factor_of_page = chunk.meta.tlb_factor_of_page
            else:
                self._factor_of_page = lambda page: DEFAULT_TLB_FACTOR
        return self._factor_of_page

    def feed(self, chunk: Trace) -> Trace:
        """The TLB-miss sub-trace this chunk of cache misses produces.

        Timestamps are preserved; the result may be empty when every
        touch hit a TLB.
        """
        factor_of_page = self._resolve_factor(chunk)
        tlbs = self._tlbs
        factor_cache = self._factor_cache
        builder = TraceBuilder(meta=chunk.meta)
        times = chunk.time_ns
        cpus = chunk.cpu
        processes = chunk.process
        pages = chunk.page
        weights = chunk.weight
        flags = chunk.flags
        for i in range(len(chunk)):
            cpu = int(cpus[i])
            if cpu >= self.n_cpus:
                raise TraceError(f"record cpu {cpu} outside machine")
            page = int(pages[i])
            hit = tlbs[cpu].access(page)
            if hit:
                continue
            factor = factor_cache.get(page)
            if factor is None:
                factor = factor_cache[page] = float(factor_of_page(page))
            tlb_weight = max(1, int(round(int(weights[i]) * factor)))
            flag = int(flags[i])
            builder.append(
                int(times[i]),
                cpu,
                int(processes[i]),
                page,
                weight=tlb_weight,
                # A software TLB reload sees whether the faulting reference
                # was a store, so write information survives in the TLB
                # stream.
                is_write=bool(flag & 0x1),
                is_instr=bool(flag & FLAG_INSTR),
                is_kernel=bool(flag & FLAG_KERNEL),
            )
        return builder.build(sort=False)


def derive_tlb_trace(
    trace: Trace,
    n_cpus: Optional[int] = None,
    tlb_config: Optional[TlbConfig] = None,
    factor_of_page: Optional[Callable[[int], float]] = None,
) -> Trace:
    """Produce the TLB-miss trace corresponding to ``trace``.

    ``factor_of_page`` defaults to the workload spec attached to the
    trace (``trace.meta.tlb_factor_of_page``) and falls back to a uniform
    factor when no metadata is available.
    """
    if n_cpus is None:
        n_cpus = int(trace.cpu.max()) + 1 if len(trace) else 1
    deriver = TlbTraceDeriver(
        n_cpus, tlb_config=tlb_config, factor_of_page=factor_of_page
    )
    return deriver.feed(trace)


def merged_tlb_stream(
    chunks: Iterable[Trace],
    n_cpus: int,
    tlb_config: Optional[TlbConfig] = None,
    factor_of_page: Optional[Callable[[int], float]] = None,
) -> Iterator[Tuple[np.ndarray, ...]]:
    """Stream the cost/TLB-driver merge over time-ordered chunks.

    Derives each chunk's TLB-miss sub-trace statefully (one
    :class:`TlbTraceDeriver` fed chunk by chunk, so the derived records
    concatenate to :func:`derive_tlb_trace` on the whole input) and
    merges it back into the cache-miss stream in exactly the order
    :func:`~repro.trace.segments.merge_streams` gives the whole traces:
    time order, cost events winning timestamp ties.  Yields ``(times, cpus, pages,
    weights, is_write, costmask)`` column batches — ``costmask`` True
    for cache-miss (stall-charging) records, False for derived TLB
    (counter-driving) records — ready for
    :func:`repro.trace.fastpath.replay_vector` or a scalar event
    wrapper.

    A derived record whose timestamp reaches the chunk's last cost
    timestamp is *held back* and merged with a later batch: a future
    chunk may still contain cost events at or below that timestamp,
    which must sort before it.  Cost timestamps are non-decreasing
    across chunks, so anything strictly earlier is safe to emit.
    """
    deriver = TlbTraceDeriver(
        n_cpus, tlb_config=tlb_config, factor_of_page=factor_of_page
    )
    carry: Optional[Tuple[np.ndarray, ...]] = None
    for chunk in chunks:
        derived = deriver.feed(chunk)
        if not len(chunk):
            continue
        pool = data_columns(derived)
        if carry is not None:
            pool = tuple(
                np.concatenate([c, d]) for c, d in zip(carry, pool)
            )
        last_cost_t = int(chunk.time_ns[-1])
        ready = pool[0] < last_cost_t
        now = tuple(col[ready] for col in pool)
        carry = tuple(col[~ready] for col in pool)
        yield merge_streams(data_columns(chunk), now)
    if carry is not None and len(carry[0]):
        yield (*carry, np.zeros(len(carry[0]), dtype=bool))
