"""The per-window latency table against the per-record memory model.

``NumaSystem`` services misses through ``NumaMemorySystem.latency_table``
and folds counted work into the controllers and links once per window.
A second ``NumaMemorySystem`` driven one ``service_miss`` call per record
(the one-record API) is the oracle: every latency, statistic and
resource counter must match it exactly, not approximately.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.config import MachineConfig
from repro.machine.memory import NumaMemorySystem
from repro.obs.events import MissServiced
from repro.obs.tracer import ListSink, Tracer
from repro.policy.parameters import PolicyParameters
from repro.sim.simulator import NumaSystem, SimulatorOptions

WINDOW = 1_000_000
N_CPUS = 4
# Occupancies ~25x FLASH's, so a handful of records in one window reach
# the utilisation cap and queuing delays differ window to window.
MACHINE = (
    MachineConfig.flash_ccnuma(n_cpus=N_CPUS, n_nodes=N_CPUS)
    .with_memory(controller_occupancy_ns=4000, remote_extra_occupancy_ns=2000)
    .with_network(link_occupancy_ns=1500)
)
PARAMS = PolicyParameters.base().replace(
    trigger_threshold=32, sharing_threshold=8, batch_pages=1
)
OPTIONS = SimulatorOptions(pager_delay_ns=0)

# A record: the step to it, then its own fields.
_RECORD = st.tuples(
    st.integers(0, 20_000),        # ns since the record before
    st.integers(0, N_CPUS - 1),    # cpu (and process)
    st.integers(0, 11),            # page
    st.integers(1, 64),            # weight
    st.booleans(),                 # write
    st.booleans(),                 # instruction fetch
    st.booleans(),                 # kernel mode
)
# A burst of records inside one window, and how time gets there: stay in
# the current window, step to the adjacent one, or skip >= 2 idle ones.
_BURST = st.tuples(
    st.sampled_from(("same", "next", "skip")),
    st.integers(2, 4),             # windows a skip moves
    st.integers(0, WINDOW // 2),   # offset into the window moved to
    st.lists(_RECORD, min_size=1, max_size=24),
)
_BURSTS = st.lists(_BURST, min_size=1, max_size=8)


def _stream(bursts):
    """Columns (time, cpu, pid, page, weight, write, instr, kernel)."""
    rows, t = [], 0
    for kind, skip, offset, records in bursts:
        start = t // WINDOW * WINDOW
        if kind != "same":
            start += (1 if kind == "next" else skip) * WINDOW
            t = start + offset
        for gap, cpu, page, weight, write, instr, kernel in records:
            t = min(t + gap, start + WINDOW - 1)
            rows.append((t, cpu, cpu, page, weight, write, instr, kernel))
    return [list(column) for column in zip(*rows)]


def _resources(memory):
    return memory._controllers + memory.interconnect.links


def assert_same_state(memory, oracle, now):
    """Everything the run's results read from the memory system."""
    assert memory.local_latency.to_dict() == oracle.local_latency.to_dict()
    assert memory.remote_latency.to_dict() == oracle.remote_latency.to_dict()
    for got, want in zip(_resources(memory), _resources(oracle)):
        assert (
            got.requests, got.total_busy_ns, got.max_utilisation_seen,
            got._queue_area,
        ) == (
            want.requests, want.total_busy_ns, want.max_utilisation_seen,
            want._queue_area,
        )
    assert memory.average_network_queue_length(now) == (
        oracle.average_network_queue_length(now)
    )
    assert memory.max_controller_occupancy() == oracle.max_controller_occupancy()
    assert (
        memory.local_misses, memory.remote_misses,
        memory.remote_handler_invocations, memory.interconnect.remote_requests,
    ) == (
        oracle.local_misses, oracle.remote_misses,
        oracle.remote_handler_invocations, oracle.interconnect.remote_requests,
    )


def _system(tracer=None):
    return NumaSystem(
        MACHINE, PARAMS, OPTIONS, frames_per_node=64, tracer=tracer
    )


def _check_miss_calls(columns):
    """Drive user misses one ``miss()`` at a time against the oracle."""
    system, oracle = _system(), NumaMemorySystem(MACHINE)
    local_ns = remote_ns = 0.0
    times, cpus, pids, pages, weights, writes = columns[:6]
    for t, cpu, pid, page, weight, write in zip(
        times, cpus, pids, pages, weights, writes
    ):
        outcome = system.miss(t, cpu, pid, page, weight=weight, write=write)
        want = oracle.service_miss(t, cpu, outcome.node, weight)
        assert outcome.latency_ns == want.latency_ns
        assert outcome.is_local == (not want.is_remote)
        if want.is_remote:
            remote_ns += want.latency_ns * weight
        else:
            local_ns += want.latency_ns * weight
        # Every view is current between calls, not just at the end.
        assert system.memory.remote_misses == oracle.remote_misses
    assert (system.stall.local_ns, system.stall.remote_ns) == (
        local_ns, remote_ns
    )
    assert_same_state(system.memory, oracle, times[-1])


@settings(max_examples=60, deadline=None)
@given(_BURSTS, st.lists(st.integers(0, 200), max_size=6))
def test_feed_slices_match_per_record_oracle(bursts, cuts):
    columns = _stream(bursts)
    n = len(columns[0])
    sink = ListSink()
    system = _system(Tracer(sinks=[sink], kinds=[MissServiced.KIND]))
    bounds = [0] + sorted({min(cut, n) for cut in cuts}) + [n]
    for lo, hi in zip(bounds, bounds[1:]):
        if lo < hi:
            system.feed(*(column[lo:hi] for column in columns))
    oracle = NumaMemorySystem(MACHINE)
    events = sink.events
    assert len(events) == n
    stall = dict.fromkeys(
        ("kernel_instr_ns", "kernel_data_ns", "user_instr_ns",
         "user_data_ns", "local_ns", "remote_ns"), 0.0
    )
    for t, cpu, weight, instr, kernel, event in zip(
        columns[0], columns[1], columns[4], columns[6], columns[7], events
    ):
        want = oracle.service_miss(t, cpu, event.node, weight)
        assert event.latency_ns == want.latency_ns
        assert event.remote == want.is_remote
        stall_ns = want.latency_ns * weight
        mode = "kernel" if kernel else "user"
        stall[f"{mode}_{'instr' if instr else 'data'}_ns"] += stall_ns
        stall["remote_ns" if want.is_remote else "local_ns"] += stall_ns
    assert {key: getattr(system.stall, key) for key in stall} == stall
    assert_same_state(system.memory, oracle, columns[0][-1])


@settings(max_examples=40, deadline=None)
@given(_BURSTS)
def test_miss_calls_match_per_record_oracle(bursts):
    _check_miss_calls(_stream(bursts))


def test_resource_idle_for_the_last_windows():
    """A remote burst in window 0, then three windows of local misses on
    another node: the burst's controllers and links keep window 0 open
    (they are closed only when next given work), so the time-averaged
    network queue spreads window 0's work over the whole run.  Closing
    every resource at each window crossing changes that figure."""
    times = [0, 1_000] + [2_000 + 10 * i for i in range(12)]
    times += [1_500_000, 2_500_000, 3_400_000]
    cpus = [1, 0] + [0] * 12 + [2, 2, 2]
    pages = [10, 10] + [10] * 12 + [20, 20, 20]
    weights = [1, 64] + [64] * 12 + [8, 8, 8]
    writes = [False] * len(times)
    _check_miss_calls([times, cpus, cpus, pages, weights, writes])
