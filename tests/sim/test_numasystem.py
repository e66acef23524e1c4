"""The interactive NumaSystem facade."""

import runpy
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.machine.config import MachineConfig
from repro.policy.parameters import PolicyParameters
from repro.obs.events import ALL_KINDS, MissServiced
from repro.obs.export import JsonlSink
from repro.obs.tracer import Tracer
from repro.sim.simulator import NumaSystem, SimulatorOptions

PARAMS = PolicyParameters(
    trigger_threshold=20, sharing_threshold=5, batch_pages=1,
)


def make_system(params=PARAMS, **options):
    options.setdefault("pager_delay_ns", 10)
    return NumaSystem(
        MachineConfig.flash_ccnuma(), params, SimulatorOptions(**options)
    )


class TestBasicServicing:
    def test_first_touch_is_local(self):
        system = make_system()
        outcome = system.miss(0, cpu=3, process=1, page=42)
        assert outcome.is_local
        assert outcome.node == 3
        assert outcome.latency_ns >= 300

    def test_remote_access_to_foreign_page(self):
        system = make_system()
        system.miss(0, cpu=3, process=1, page=42)
        outcome = system.miss(1, cpu=5, process=2, page=42, weight=2)
        assert not outcome.is_local
        assert outcome.stall_ns == pytest.approx(outcome.latency_ns * 2)

    def test_time_must_be_monotonic(self):
        system = make_system()
        system.miss(100, 0, 0, 1)
        with pytest.raises(ValueError):
            system.miss(50, 0, 0, 1)


class TestDynamicBehaviour:
    def test_hot_remote_private_page_migrates(self):
        system = make_system()
        system.miss(0, cpu=0, process=1, page=7)
        # Process moves to cpu 4 and hammers its page.
        for t in range(100, 2000, 100):
            system.miss(t, cpu=4, process=1, page=7, weight=5)
        system.flush_pager()
        assert system.tally.migrated == 1
        assert system.location_of(1, 7) == 4

    def test_shared_read_page_replicates(self):
        system = make_system()
        for t in range(0, 3000, 100):
            system.miss(t, cpu=0, process=1, page=7, weight=3)
            system.miss(t + 1, cpu=5, process=2, page=7, weight=3)
        system.flush_pager()
        assert system.tally.replicated >= 1
        assert 5 in system.copies_of(7)

    def test_write_collapses_replicas(self):
        system = make_system()
        for t in range(0, 3000, 100):
            system.miss(t, cpu=0, process=1, page=7, weight=3)
            system.miss(t + 1, cpu=5, process=2, page=7, weight=3)
        system.flush_pager()
        assert len(system.copies_of(7)) > 1
        outcome = system.miss(5000, cpu=0, process=1, page=7, write=True)
        assert outcome.collapsed
        assert len(system.copies_of(7)) == 1

    def test_static_system_never_moves_pages(self):
        system = make_system(dynamic=False)
        system.miss(0, cpu=0, process=1, page=7)
        for t in range(100, 3000, 100):
            system.miss(t, cpu=4, process=1, page=7, weight=5)
        system.flush_pager()
        assert system.tally.hot_pages == 0
        assert system.location_of(1, 7) == 0
        assert system.kernel_overhead_ns == 0

    def test_reset_interval_clears_counters(self):
        params = PARAMS.replace(reset_interval_ns=1000)
        system = make_system(params=params)
        system.miss(0, cpu=0, process=1, page=7, weight=19)   # below trigger
        # Cross the reset boundary: old counts are gone.
        system.miss(2000, cpu=4, process=1, page=7, weight=19)
        system.flush_pager()
        assert system.tally.hot_pages == 0

    def test_local_fraction_tracks_memory_system(self):
        system = make_system()
        system.miss(0, cpu=0, process=1, page=1, weight=3)    # local
        system.miss(1, cpu=1, process=2, page=1, weight=1)    # remote
        assert system.local_fraction == pytest.approx(0.75)


class TestOverheadAccounting:
    def test_actions_charge_kernel_time(self):
        system = make_system()
        system.miss(0, cpu=0, process=1, page=7)
        for t in range(100, 2000, 100):
            system.miss(t, cpu=4, process=1, page=7, weight=5)
        system.flush_pager()
        assert system.kernel_overhead_ns > 0

    def test_vm_invariants_after_activity(self):
        system = make_system()
        for t in range(0, 5000, 50):
            page = (t // 50) % 9
            cpu = (t // 100) % 8
            system.miss(t, cpu=cpu, process=cpu, page=page, weight=4,
                        write=(page == 3))
        system.flush_pager()
        system.vm.check_invariants()


class TestMatchesSimulator:
    def test_same_trace_same_outcome_as_system_simulator(self):
        """Fed the simulator's miss stream one miss() at a time, the
        system ends in the state the simulator's one whole-trace feed()
        reaches: miss() is a one-record call of the same loop."""
        from repro.exp.spec import machine_for, params_for
        from repro.sim.simulator import SystemSimulator
        from repro.workloads import build_spec, generate_trace

        spec = build_spec("splash", scale=0.1, seed=1)
        trace = generate_trace(spec).user_only()
        machine = machine_for("ccnuma", spec)
        params = params_for("splash", None)
        result = SystemSimulator(spec, machine=machine, params=params).run(
            trace
        )
        system = NumaSystem(
            machine, params, frames_per_node=spec.frames_per_node
        )
        rows = zip(
            trace.time_ns.tolist(), trace.cpu.tolist(),
            trace.process.tolist(), trace.page.tolist(),
            trace.weight.tolist(), trace.is_write.tolist(),
        )
        for t, cpu, pid, page, weight, write in rows:
            system.miss(t, cpu, pid, page, weight=weight, write=write)
        system.flush_pager()
        assert system.tally.to_dict() == result.tally.to_dict()
        assert system.memory.remote_misses == result.stall.remote_misses
        assert system.memory.total_misses == result.stall.total_misses
        assert system.kernel_overhead_ns == result.kernel_overhead_ns
        # miss() services data misses, so the simulator's instruction
        # stall shows up as data stall; the local/remote split is exact.
        stall, expected = system.stall, result.stall
        assert (stall.local_ns, stall.remote_ns) == (
            expected.local_ns, expected.remote_ns
        )
        assert (stall.local_misses, stall.remote_misses) == (
            expected.local_misses, expected.remote_misses
        )
        assert stall.user_data_ns == pytest.approx(expected.user_ns)
        assert stall.user_instr_ns == stall.kernel_ns == 0


class TestBatchSlices:
    """feed() carries its state across calls: any slicing of a stream
    ends where one whole-stream call ends."""

    @pytest.fixture(scope="class")
    def splash(self):
        from repro.exp.spec import machine_for, params_for
        from repro.workloads import build_spec, generate_trace

        spec = build_spec("splash", scale=0.1, seed=1)
        trace = generate_trace(spec)          # kernel records included
        params = params_for("splash", None)
        params = params.replace(
            reset_interval_ns=params.reset_interval_ns // 4
        )
        return spec, trace, machine_for("ccnuma", spec), params

    @staticmethod
    def run(splash, log, cuts):
        spec, trace, machine, params = splash
        # Every decision, interval and trigger event; misses are
        # checked through the stall breakdown instead.
        tracer = Tracer(
            sinks=[JsonlSink(str(log))],
            kinds=ALL_KINDS - {MissServiced.KIND},
        )
        system = NumaSystem(
            machine, params, SimulatorOptions(adaptive_trigger=True),
            frames_per_node=spec.frames_per_node, tracer=tracer,
        )
        columns = (
            trace.time_ns, trace.cpu, trace.process, trace.page,
            trace.weight, trace.is_write, trace.is_instr, trace.is_kernel,
        )
        bounds = [0, *cuts, len(trace)]
        for lo, hi in zip(bounds, bounds[1:]):
            system.feed(*(column[lo:hi] for column in columns))
        system.flush_pager()
        tracer.close()
        return system

    def test_uneven_slices_match_one_call(self, splash, tmp_path):
        _, trace, _, params = splash
        # The first record of the fourth interval starts a slice, so
        # that slice's first record performs the reset.
        edge = int(
            np.searchsorted(trace.time_ns, 3 * params.reset_interval_ns)
        )
        n = len(trace)
        assert 61 < edge < n - 4099
        cuts = sorted([
            *range(1, 61), 60,              # one-record slices, one empty
            edge - 1, edge, edge + 1,
            *range(edge + 2, n - 40, 4099),
            *range(n - 40, n),              # one-record slices at the end
        ])
        whole = self.run(splash, tmp_path / "whole.jsonl", [])
        sliced = self.run(splash, tmp_path / "sliced.jsonl", cuts)
        assert whole.tally.hot_pages > 0
        assert whole.metrics.collect()["policy.adaptive.history_len"] > 3
        assert sliced.tally.to_dict() == whole.tally.to_dict()
        assert sliced.stall == whole.stall
        assert sliced.metrics.collect() == whole.metrics.collect()
        assert (tmp_path / "sliced.jsonl").read_bytes() == (
            tmp_path / "whole.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize("columns, error", [
        (([0, 1], [0], [0], [0], [1], [0], [0], [0]), ValueError),
        (([0], [8], [0], [0], [1], [0], [0], [0]), ConfigurationError),
        (([0], [-1], [0], [0], [1], [0], [0], [0]), ConfigurationError),
        (([0], [0], [0], [0], [0], [0], [0], [0]), ConfigurationError),
    ], ids=["unequal-lengths", "cpu-too-high", "cpu-negative", "weight-0"])
    def test_malformed_batch_is_rejected(self, columns, error):
        system = make_system()
        with pytest.raises(error):
            system.feed(*columns)
        assert system.memory.total_misses == 0

    def test_empty_batch_changes_nothing(self):
        system = make_system()
        assert system.feed((), (), (), (), (), (), (), ()) is None
        assert system.now_ns == 0
        assert system.memory.total_misses == 0


class TestInteractiveExample:
    def test_act3_replicates_then_collapses(self, capsys):
        example = Path(__file__).parents[2] / "examples/interactive_numa.py"
        runpy.run_path(str(example), run_name="__main__")
        out = capsys.readouterr().out
        assert "copies of page 0 now on nodes [6, 3] (1 replication[s])" in out
        assert "process 1 writes page 0 -> collapsed=True" in out
