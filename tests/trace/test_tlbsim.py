"""TLB-miss derivation (Section 8.3)."""

import pytest

from repro.machine.config import TlbConfig
from repro.trace.record import TraceBuilder
from repro.trace.tlbsim import TlbTraceDeriver, derive_tlb_trace


def build(rows, meta=None):
    b = TraceBuilder(meta=meta)
    for r in rows:
        b.append(*r)
    return b.build()


def feed_chunks(chunks, n_cpus, **kwargs):
    """Each chunk's derived sub-trace, from one deriver fed in order."""
    deriver = TlbTraceDeriver(n_cpus, **kwargs)
    return [deriver.feed(chunk) for chunk in chunks]


def test_resident_page_produces_no_tlb_misses():
    rows = [(t, 0, 0, 5, 10) for t in range(0, 100, 10)]
    trace = build(rows)
    tlb = derive_tlb_trace(trace, n_cpus=1, factor_of_page=lambda p: 1.0)
    assert len(tlb) == 1          # only the first touch misses


def test_capacity_thrash_produces_many_misses():
    config = TlbConfig(entries=4)
    # Sweep 8 pages repeatedly through a 4-entry TLB: every touch misses.
    rows = [(t, 0, 0, t % 8, 10) for t in range(64)]
    trace = build(rows)
    tlb = derive_tlb_trace(
        trace, n_cpus=1, tlb_config=config, factor_of_page=lambda p: 1.0
    )
    assert len(tlb) == 64


def test_factor_scales_weight():
    rows = [(0, 0, 0, 5, 100)]
    trace = build(rows)
    low = derive_tlb_trace(trace, n_cpus=1, factor_of_page=lambda p: 0.01)
    high = derive_tlb_trace(trace, n_cpus=1, factor_of_page=lambda p: 1.0)
    assert low.total_misses == 1          # max(1, 100*0.01)
    assert high.total_misses == 100


def test_code_pages_nearly_invisible_to_tlb():
    """The engineering-workload mechanism: huge cache-miss weight, tiny
    TLB-miss weight, because the hot code pages stay TLB-resident."""
    rows = [(t, 0, 0, 1, 500) for t in range(0, 1000, 10)]
    trace = build(rows)
    tlb = derive_tlb_trace(trace, n_cpus=1, factor_of_page=lambda p: 0.01)
    assert tlb.total_misses <= 5
    assert trace.total_misses == 50_000


def test_write_flag_survives():
    rows = [(0, 0, 0, 5, 10, True)]
    trace = build(rows)
    tlb = derive_tlb_trace(trace, n_cpus=1, factor_of_page=lambda p: 1.0)
    assert bool(tlb.is_write[0])


def test_per_cpu_tlbs_independent():
    rows = [
        (0, 0, 0, 5, 10),
        (1, 1, 0, 5, 10),   # cpu 1's TLB has not seen page 5
    ]
    trace = build(rows)
    tlb = derive_tlb_trace(trace, n_cpus=2, factor_of_page=lambda p: 1.0)
    assert len(tlb) == 2


def test_uses_workload_meta_factors(engineering):
    spec, trace = engineering
    sample = trace.select(trace.page == trace.page[0])
    tlb = derive_tlb_trace(trace, n_cpus=spec.n_cpus)
    assert len(tlb) > 0
    # Instruction pages (tlb_factor ~0.01) are under-represented relative
    # to their cache-miss weight.
    cache_instr_frac = trace.instr_only().total_misses / trace.total_misses
    tlb_instr_frac = tlb.instr_only().total_misses / tlb.total_misses
    assert tlb_instr_frac < cache_instr_frac / 3
    del sample


def test_timestamps_preserved():
    rows = [(123, 0, 0, 5, 10)]
    tlb = derive_tlb_trace(build(rows), n_cpus=1, factor_of_page=lambda p: 1.0)
    assert tlb.time_ns[0] == 123


class TestStreamingDerivation:
    def chunked(self, trace, size):
        return [
            trace.select(slice(k, k + size))
            for k in range(0, len(trace), size)
        ]

    def test_chunked_equals_full(self):
        from repro.trace.record import merge_traces

        config = TlbConfig(entries=4)
        rows = [(t * 10, t % 2, 0, (t * 3) % 11, 5) for t in range(300)]
        trace = build(rows)
        full = derive_tlb_trace(
            trace, n_cpus=2, tlb_config=config, factor_of_page=lambda p: 1.0
        )
        for size in (1, 17, 100, 1000):
            pieces = feed_chunks(
                self.chunked(trace, size), n_cpus=2,
                tlb_config=config, factor_of_page=lambda p: 1.0,
            )
            streamed = merge_traces(pieces)
            assert len(streamed) == len(full), size
            assert list(streamed.time_ns) == list(full.time_ns), size
            assert list(streamed.weight) == list(full.weight), size

    def test_tlb_state_survives_chunk_boundaries(self):
        deriver = TlbTraceDeriver(1, factor_of_page=lambda p: 1.0)
        first = deriver.feed(build([(0, 0, 0, 5, 10)]))
        again = deriver.feed(build([(10, 0, 0, 5, 10)]))
        assert len(first) == 1      # first touch misses
        assert len(again) == 0      # still resident across the boundary

    def test_empty_chunks_filtered(self):
        trace = build([(t, 0, 0, 5, 10) for t in range(0, 100, 10)])
        pieces = feed_chunks(
            self.chunked(trace, 2), n_cpus=1, factor_of_page=lambda p: 1.0,
        )
        # Only the chunk containing the first touch produces records.
        assert [len(p) for p in pieces] == [1, 0, 0, 0, 0]


class TestEdgeCases:
    def test_empty_trace_derives_empty(self):
        tlb = derive_tlb_trace(build([]), n_cpus=2)
        assert len(tlb) == 0

    def test_empty_trace_without_cpu_hint(self):
        # n_cpus is inferred from the CPU column; an empty one must not
        # make the deriver guess wildly or crash.
        tlb = derive_tlb_trace(build([]))
        assert len(tlb) == 0

    def test_idle_cpus_carry_no_records(self):
        # CPUs 0, 2 and 3 exist but never miss; only CPU 1's TLB fills.
        rows = [(t, 1, 0, t % 8, 10) for t in range(16)]
        tlb = derive_tlb_trace(
            build(rows), n_cpus=4, factor_of_page=lambda p: 1.0
        )
        assert len(tlb) > 0
        assert set(tlb.cpu.tolist()) == {1}

    def test_empty_chunk_stream_yields_nothing(self):
        assert feed_chunks([], n_cpus=2) == []
        (derived,) = feed_chunks([build([])], n_cpus=2)
        assert len(derived) == 0


class TestChunkedIdentity:
    """Satellite check: streamed derivation is byte-identical to the
    materialized path, and identical all the way through the PT-policy
    walk counters it ends up driving."""

    ROWS = [(t * 10, t % 2, t % 2, (t * 3) % 11, 5) for t in range(240)]

    def _full_and_streamed(self, size):
        import numpy as np

        from repro.trace.record import merge_traces

        config = TlbConfig(entries=4)
        trace = build(self.ROWS)
        full = derive_tlb_trace(
            trace, n_cpus=2, tlb_config=config, factor_of_page=lambda p: 1.0
        )
        chunks = [
            trace.select(slice(k, k + size))
            for k in range(0, len(trace), size)
        ]
        streamed = merge_traces(
            feed_chunks(
                chunks, n_cpus=2, tlb_config=config,
                factor_of_page=lambda p: 1.0,
            )
        )
        return full, streamed, np

    def test_single_chunk_window_is_byte_identical(self):
        full, streamed, np = self._full_and_streamed(size=10**9)
        for column in ("time_ns", "cpu", "process", "page", "weight", "flags"):
            a, b = getattr(full, column), getattr(streamed, column)
            assert a.dtype == b.dtype, column
            assert np.array_equal(a, b), column

    def test_chunked_windows_are_byte_identical(self):
        for size in (1, 7, 64):
            full, streamed, np = self._full_and_streamed(size)
            for column in (
                "time_ns", "cpu", "process", "page", "weight", "flags"
            ):
                assert np.array_equal(
                    getattr(full, column), getattr(streamed, column)
                ), (size, column)

    def test_both_paths_drive_identical_pt_walk_counters(self):
        from repro.ptpol.sim import simulate_ptpol
        from repro.trace.policysim import PolicySimConfig

        full, streamed, _ = self._full_and_streamed(size=31)
        trace = build(self.ROWS)
        config = PolicySimConfig(
            n_cpus=2, n_nodes=2, pt_span_pages=4,
            decision_delay_ns=1, engine="scalar",
        )
        result_a, tally_a = simulate_ptpol(
            trace, "ptrepl", config=config, trigger=4, driver_trace=full
        )
        result_b, tally_b = simulate_ptpol(
            trace, "ptrepl", config=config, trigger=4, driver_trace=streamed
        )
        assert tally_a.to_dict() == tally_b.to_dict()
        assert tally_a.walks > 0
        assert result_a.stall_ns == result_b.stall_ns
        assert result_a.extra == result_b.extra
