"""The full-system simulator: Section 7's experimental apparatus.

:class:`NumaSystem` is the one machine + kernel stack.  It services a
time-ordered stream of weighted misses:

* the NUMA memory system services every miss (latency + contention);
* the directory controller counts misses per page per CPU, samples if
  configured, and raises batched pager interrupts for hot remote pages;
* the pager executes Figure 2 against live VM structures (page frames,
  replica chains, hash table, page tables, locks), charging its costs;
* writes to replicated pages trap into the collapse path;
* kernel-mode pages are placed first-touch and never moved — IRIX loads
  its kernel unmapped at boot, so kernel pages cannot be migrated or
  replicated (Section 8.2), only user pages can.

:meth:`NumaSystem.feed` services a batch of records given as columns;
:meth:`NumaSystem.miss` is a one-record call of it, so a caller can drive
the paper's machinery from any event source (a custom generator, a
parsed trace from another simulator, a live experiment):

    system = NumaSystem(MachineConfig.flash_ccnuma(), PolicyParameters.base())
    for event in my_events:
        outcome = system.miss(event.t, event.cpu, event.pid, event.page,
                              weight=event.n, write=event.is_write)
        total_stall += outcome.stall_ns
    system.flush_pager()
    print(system.local_fraction, system.tally.percentages())

:class:`SystemSimulator` feeds one workload's whole trace to a
:class:`NumaSystem` in one call and assembles the
:class:`~repro.sim.results.SimulationResult`.

Timestamps come from the trace (fixed timeline); policies are compared by
the execution-time decomposition compute + idle + stall + overhead, as in
the paper's trace-based methodology.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.kernel.pager.collapse import CollapseHandler
from repro.kernel.pager.costs import KernelCostAccounting, KernelCostModel
from repro.kernel.pager.handler import ActionTally, PagerHandler
from repro.kernel.vm.shootdown import ShootdownMode
from repro.kernel.vm.system import VmSystem
from repro.machine.config import MachineConfig
from repro.machine.directory import DirectoryArray
from repro.machine.memory import NumaMemorySystem
from repro.obs.events import (
    IntervalReset,
    MissServiced,
    RunMeta,
    TriggerAdjusted,
)
from repro.obs.prof import as_profiler
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import as_tracer
from repro.policy.adaptive import AdaptiveTriggerController, IntervalFeedback
from repro.policy.parameters import PolicyParameters
from repro.sim.results import ContentionStats, SimulationResult, StallBreakdown
from repro.trace.record import Trace
from repro.workloads.base import generate_trace
from repro.workloads.spec import WorkloadSpec

#: Legacy ``result.extra`` keys, served from the metrics namespace so old
#: consumers keep working while the registry is the single source of truth.
_LEGACY_EXTRA = {
    "tlbs_flushed": "kernel.pager.tlbs_flushed",
    "flush_operations": "kernel.pager.flush_operations",
    "memlock_wait_ns": "kernel.locks.memlock.wait_ns.total",
    "vm_migrations": "vm.migrations",
    "vm_replications": "vm.replications",
    "vm_faults": "vm.faults",
    "replicas_reclaimed": "vm.replicas_reclaimed",
}

_LEGACY_EXTRA_ADAPTIVE = {
    "final_trigger": "policy.adaptive.trigger",
    "trigger_history_len": "policy.adaptive.history_len",
}


#: Records whose columns are turned into Python lists at a time.  Whole
#: columns cost ~18 MB more peak memory on the Fig. 3 grid at scale 0.25,
#: for no speed.
_CHUNK = 8192

#: How one element of each ``feed`` column becomes a Python scalar.
_CONVERTS = (int, int, int, int, int, bool, bool, bool)


def _chunk(column, lo: int, convert) -> list:
    """``column[lo:lo + _CHUNK]`` as a list of Python scalars."""
    part = column[lo:lo + _CHUNK]
    if isinstance(part, np.ndarray):
        return part.tolist()
    return [convert(value) for value in part]


@dataclass
class SimulatorOptions:
    """Knobs of a full-system run."""

    dynamic: bool = True                      # migration/replication on?
    shootdown_mode: ShootdownMode = ShootdownMode.ALL_CPUS
    pipelined_copy: bool = False              # MAGIC memory-to-memory copy
    pager_delay_ns: int = 20_000_000          # interrupt dispatch latency
    adaptive_trigger: bool = False            # Section 8.4's open problem

    @property
    def label(self) -> str:
        """Short policy label for result tables."""
        return "Mig/Rep" if self.dynamic else "FT"


@dataclass(frozen=True)
class MissOutcome:
    """What one (weighted) miss experienced."""

    node: int               # node that serviced the miss
    is_local: bool
    latency_ns: float       # per-miss latency including queuing
    stall_ns: float         # latency x weight
    collapsed: bool         # a write hit a replicated page


class NumaSystem:
    """A live CC-NUMA machine + kernel accepting a time-ordered miss stream."""

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        params: Optional[PolicyParameters] = None,
        options: Optional[SimulatorOptions] = None,
        frames_per_node: Optional[int] = None,
        costs: Optional[KernelCostModel] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.machine = machine = machine or MachineConfig.flash_ccnuma()
        self.params = params = params or PolicyParameters.base()
        self.options = options = options or SimulatorOptions()
        self.costs = costs or KernelCostModel.for_machine(
            machine, pipelined_copy=options.pipelined_copy
        )
        self.tracer = tracer = as_tracer(tracer)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.vm = VmSystem(
            machine.n_nodes,
            frames_per_node or machine.memory.frames_per_node,
        )
        self.memory = NumaMemorySystem(machine)
        self.directory = DirectoryArray(
            machine.n_cpus,
            trigger_threshold=params.trigger_threshold,
            sampling_rate=params.sampling_rate,
            batch_pages=params.batch_pages,
            tracer=tracer,
        )
        self.accounting = KernelCostAccounting()
        self._last_cpu: Dict[int, int] = {}
        self.pager = PagerHandler(
            vm=self.vm,
            directory=self.directory,
            params=params,
            costs=self.costs,
            accounting=self.accounting,
            n_cpus=machine.n_cpus,
            node_of_cpu=machine.node_of_cpu,
            node_of_process=self._node_of_process,
            cpu_of_process=self._last_cpu.get,
            shootdown_mode=options.shootdown_mode,
            tracer=tracer,
        )
        self.collapser = CollapseHandler(
            vm=self.vm,
            directory=self.directory,
            costs=self.costs,
            accounting=self.accounting,
            n_cpus=machine.n_cpus,
            node_of_cpu=machine.node_of_cpu,
            cpu_of_process=self._last_cpu.get,
            shootdown_mode=options.shootdown_mode,
            tracer=tracer,
        )
        self._register_metrics()
        self.adaptive: Optional[AdaptiveTriggerController] = None
        if options.adaptive_trigger and options.dynamic:
            self.adaptive = AdaptiveTriggerController(
                initial_trigger=params.trigger_threshold
            )
            self.adaptive.register_metrics(self.metrics)
        self.stall = StallBreakdown()
        # State carried from one feed() call to the next.
        self.now_ns = 0                   # time of the last serviced record
        self._pending: list = []          # heap of (due_ns, seq, HotBatch)
        self._pending_seq = itertools.count()
        self._next_reset = params.reset_interval_ns
        self._interval_index = 0
        self._interval_marks = (0.0, 0, 0)  # overhead/remote/total at start
        self._kernel_placement: Dict[int, int] = {}

    # -- helpers ------------------------------------------------------------------

    def _node_of_process(self, pid: int) -> int:
        return self.machine.node_of_cpu(self._last_cpu.get(pid, 0))

    def _register_metrics(self) -> None:
        """Attach every layer's counters to one queryable namespace.

        Registration is collect-time only (callbacks and by-reference
        histograms), so the hot loop pays nothing for it.
        """
        registry, vm = self.metrics, self.vm
        self.memory.register_metrics(registry)
        self.directory.register_metrics(registry)
        self.pager.register_metrics(registry)
        self.collapser.register_metrics(registry)
        vm.locks.register_metrics(registry)
        self.accounting.register_metrics(registry)
        stats = vm.stats
        registry.register_callback("vm.migrations", lambda: stats.migrations)
        registry.register_callback(
            "vm.replications", lambda: stats.replications
        )
        registry.register_callback("vm.faults", lambda: stats.faults)
        registry.register_callback(
            "vm.replicas_reclaimed", lambda: stats.replicas_reclaimed
        )
        registry.register_callback("vm.base_pages", lambda: stats.base_pages)
        registry.register_callback(
            "vm.peak_replica_frames",
            lambda: vm.allocator.peak_replica_frames,
        )

    # -- the event interface ----------------------------------------------------------

    def feed(
        self, times, cpus, pids, pages, weights, is_write, is_instr, is_kernel
    ):
        """Service a time-ordered batch of weighted misses, one column each.

        Any indexable columns work (numpy arrays, lists, tuples).  Calls
        continue one another exactly: a stream fed in slices ends in the
        state one whole-stream call reaches.  Returns the last record's
        ``(node, MissService)``, or None for an empty batch.

        Misses are serviced through the memory system's per-window
        latency table, and their latency statistics and stall are summed
        here in record order, so the results are the ones per-record
        :meth:`NumaMemorySystem.service_miss` calls give, bit for bit.
        """
        columns = (times, cpus, pids, pages, weights, is_write, is_instr,
                   is_kernel)
        if any(len(column) != len(times) for column in columns):
            raise ValueError("feed columns must have equal lengths")
        last = None
        for lo in range(0, len(times), _CHUNK):
            last = self._service(*[
                _chunk(column, lo, convert)
                for column, convert in zip(columns, _CONVERTS)
            ])
        return last

    def _service(
        self, times, cpus, pids, pages, weights, is_write, is_instr, is_kernel
    ):
        """:meth:`feed` for one non-empty batch of lists of Python scalars."""
        if times[0] < self.now_ns:
            raise ValueError("miss events must arrive in time order")
        if min(cpus) < 0 or max(cpus) >= self.machine.n_cpus:
            raise ConfigurationError("cpu out of range")
        if min(weights) <= 0:
            raise ConfigurationError("weight must be positive")
        machine, params, options = self.machine, self.params, self.options
        tracer = self.tracer
        vm, memory, directory = self.vm, self.memory, self.directory
        pager, collapser = self.pager, self.collapser
        accounting, adaptive = self.accounting, self.adaptive
        stall, last_cpu = self.stall, self._last_cpu
        pending, pending_seq = self._pending, self._pending_seq
        kernel_placement = self._kernel_placement
        next_reset = self._next_reset
        interval_marks = self._interval_marks
        interval_index = self._interval_index
        dynamic = options.dynamic
        emit_miss = tracer.wants(MissServiced.KIND)
        trace_on = tracer.active
        n_nodes = machine.n_nodes
        node_of_cpu = memory.node_of_cpu
        counts = memory.pair_counts
        latency_table = memory.latency_table
        window_ns = memory.window_ns
        window_lo = window_hi = 0         # the first record opens a table
        # Latency statistics and stall, summed on locals and written back
        # when the loop ends.
        local_stats, remote_stats = memory.local_latency, memory.remote_latency
        l_count, l_total, l_mean, l_m2 = (
            local_stats.count, local_stats.total,
            local_stats._mean, local_stats._m2,
        )
        l_min, l_max = local_stats.minimum, local_stats.maximum
        r_count, r_total, r_mean, r_m2 = (
            remote_stats.count, remote_stats.total,
            remote_stats._mean, remote_stats._m2,
        )
        r_min, r_max = remote_stats.minimum, remote_stats.maximum
        kernel_instr_ns, kernel_data_ns = (
            stall.kernel_instr_ns, stall.kernel_data_ns
        )
        user_instr_ns, user_data_ns = stall.user_instr_ns, stall.user_data_ns
        local_ns, remote_ns = stall.local_ns, stall.remote_ns
        local_misses, remote_misses = stall.local_misses, stall.remote_misses
        t = self.now_ns
        try:
            for t, cpu, pid, page, weight, write, instr, kernel in zip(
                times, cpus, pids, pages, weights, is_write, is_instr,
                is_kernel,
            ):
                last_cpu[pid] = cpu

                # Pager interrupts whose dispatch delay has elapsed;
                # each is serviced at its own due time, so contention
                # between handlers reflects actual interrupt timing,
                # not record batching.
                while pending and pending[0][0] <= t:
                    due, _, batch = heapq.heappop(pending)
                    pager.handle_batch(due, batch)
                # Reset-interval expiry: drain in-flight batches first.
                if t >= next_reset:
                    memory.fold()     # the adaptive feedback reads it
                    for batch in directory.drain():
                        pager.handle_batch(t, batch)
                    while pending:
                        _, _, batch = heapq.heappop(pending)
                        pager.handle_batch(t, batch)
                    if trace_on:
                        tracer.emit(
                            IntervalReset(
                                t=t,
                                index=interval_index,
                                tracked_pages=directory.bank.tracked_pages,
                                triggers=directory.triggers,
                            )
                        )
                    interval_index += 1
                    directory.interval_reset()
                    if adaptive is not None:
                        feedback = IntervalFeedback(
                            interval_ns=params.reset_interval_ns,
                            n_cpus=machine.n_cpus,
                            overhead_ns=accounting.total_overhead_ns
                            - interval_marks[0],
                            remote_misses=memory.remote_misses
                            - interval_marks[1],
                            total_misses=memory.total_misses
                            - interval_marks[2],
                        )
                        old_trigger = directory.trigger_threshold
                        new_trigger = adaptive.update(feedback)
                        directory.trigger_threshold = new_trigger
                        tuned = params.replace(
                            trigger_threshold=new_trigger,
                            sharing_threshold=max(1, new_trigger // 4),
                        )
                        pager.params = tuned
                        if trace_on and new_trigger != old_trigger:
                            tracer.emit(
                                TriggerAdjusted(
                                    t=t,
                                    old_trigger=old_trigger,
                                    new_trigger=new_trigger,
                                    overhead_fraction=(
                                        feedback.overhead_fraction
                                    ),
                                    remote_fraction=(
                                        feedback.remote_fraction
                                    ),
                                )
                            )
                    interval_marks = (
                        accounting.total_overhead_ns,
                        memory.remote_misses,
                        memory.total_misses,
                    )
                    while next_reset <= t:
                        next_reset += params.reset_interval_ns

                cpu_node = node_of_cpu[cpu]
                if kernel:
                    # Kernel pages: first-touch placement, never movable.
                    node = kernel_placement.get(page)
                    if node is None:
                        node = kernel_placement[page] = cpu_node
                else:
                    # User pages go through the VM system.
                    pte = vm.fault(pid, page, cpu_node)
                    if write:
                        master = vm.master_of(page)
                        if master is not None and master.has_replicas:
                            collapser.handle_write_fault(t, page, cpu)
                    node = pte.frame.node

                if not window_lo <= t < window_hi:
                    window = t // window_ns
                    table = latency_table(window)
                    window_lo = window * window_ns
                    window_hi = window_lo + window_ns
                key = cpu_node * n_nodes + node
                latency = table[key]
                counts[key] += weight
                # StallBreakdown.add and OnlineStats.add's weighted Welford
                # update, inline and in record order.
                stall_ns = latency * weight
                if kernel:
                    if instr:
                        kernel_instr_ns += stall_ns
                    else:
                        kernel_data_ns += stall_ns
                elif instr:
                    user_instr_ns += stall_ns
                else:
                    user_data_ns += stall_ns
                remote = node != cpu_node
                if remote:
                    remote_ns += stall_ns
                    remote_misses += weight
                    r_total += stall_ns
                    if latency < r_min:
                        r_min = latency
                    if latency > r_max:
                        r_max = latency
                    new_count = r_count + weight
                    delta = latency - r_mean
                    r_mean += delta * weight / new_count
                    r_m2 += delta * (latency - r_mean) * weight
                    r_count = new_count
                else:
                    local_ns += stall_ns
                    local_misses += weight
                    l_total += stall_ns
                    if latency < l_min:
                        l_min = latency
                    if latency > l_max:
                        l_max = latency
                    new_count = l_count + weight
                    delta = latency - l_mean
                    l_mean += delta * weight / new_count
                    l_m2 += delta * (latency - l_mean) * weight
                    l_count = new_count
                if emit_miss:
                    tracer.emit(
                        MissServiced(
                            t=t,
                            cpu=cpu,
                            page=page,
                            node=node,
                            weight=weight,
                            latency_ns=latency,
                            remote=remote,
                            kernel=kernel,
                        )
                    )
                if dynamic and not kernel:
                    batch = directory.observe(
                        page,
                        cpu,
                        write,
                        weight,
                        is_local=not remote,
                        process=pid,
                        now_ns=t,
                    )
                    if batch is not None:
                        # Small per-CPU skew so simultaneous interrupts
                        # from different CPUs do not serialise on
                        # memlock at the exact same instant.
                        jitter = (cpu * 997_001) % 4_000_000
                        heapq.heappush(
                            pending,
                            (t + options.pager_delay_ns + jitter,
                             next(pending_seq), batch),
                        )
        finally:
            (local_stats.count, local_stats.total, local_stats._mean,
             local_stats._m2) = (l_count, l_total, l_mean, l_m2)
            local_stats.minimum, local_stats.maximum = l_min, l_max
            (remote_stats.count, remote_stats.total, remote_stats._mean,
             remote_stats._m2) = (r_count, r_total, r_mean, r_m2)
            remote_stats.minimum, remote_stats.maximum = r_min, r_max
            stall.kernel_instr_ns = kernel_instr_ns
            stall.kernel_data_ns = kernel_data_ns
            stall.user_instr_ns = user_instr_ns
            stall.user_data_ns = user_data_ns
            stall.local_ns, stall.remote_ns = local_ns, remote_ns
            stall.local_misses = local_misses
            stall.remote_misses = remote_misses
            memory.fold()
            self.now_ns = t
            self._next_reset = next_reset
            self._interval_index = interval_index
            self._interval_marks = interval_marks
        return node, memory.table_service(cpu_node, node)

    def miss(
        self,
        time_ns: int,
        cpu: int,
        process: int,
        page: int,
        weight: int = 1,
        write: bool = False,
    ) -> MissOutcome:
        """Service ``weight`` identical user-mode secondary-cache misses.

        Faults the page in (first-touch) if needed, collapses replicas on
        a write, services the miss through the contention-modelled memory
        system, and counts it in the directory — possibly triggering a
        pager interrupt that fires ``options.pager_delay_ns`` later.
        """
        # Only this record's write fault can collapse: pager interrupts
        # migrate and replicate, never collapse.
        collapses = self.collapser.collapses
        node, service = self._service(
            [int(time_ns)], [int(cpu)], [int(process)], [int(page)],
            [int(weight)], [bool(write)], [False], [False],
        )
        return MissOutcome(
            node=node,
            is_local=not service.is_remote,
            latency_ns=service.latency_ns,
            stall_ns=service.latency_ns * weight,
            collapsed=self.collapser.collapses != collapses,
        )

    def flush_pager(self) -> None:
        """Service every queued interrupt now (end of run / of interval)."""
        for batch in self.directory.drain():
            self.pager.handle_batch(self.now_ns, batch)
        while self._pending:
            _, _, batch = heapq.heappop(self._pending)
            self.pager.handle_batch(self.now_ns, batch)

    # -- state views --------------------------------------------------------------------

    @property
    def tally(self) -> ActionTally:
        """Table 4-style action counts so far."""
        return self.pager.tally

    @property
    def local_fraction(self) -> float:
        """Fraction of serviced misses that were local."""
        return self.memory.local_fraction

    @property
    def kernel_overhead_ns(self) -> float:
        """Total pager overhead so far."""
        return self.accounting.total_overhead_ns

    def location_of(self, process: int, page: int) -> Optional[int]:
        """Node holding the copy ``process`` is mapped to (None if unmapped)."""
        return self.vm.location_for(process, page)

    def copies_of(self, page: int) -> list:
        """Nodes holding a copy of ``page`` (empty if not resident)."""
        master = self.vm.master_of(page)
        return master.copy_nodes() if master is not None else []


class SystemSimulator:
    """Run one workload on one machine under one policy.

    Each :meth:`run` builds a fresh :class:`NumaSystem`, feeds it the
    whole trace and gathers the result.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        machine: Optional[MachineConfig] = None,
        params: Optional[PolicyParameters] = None,
        options: Optional[SimulatorOptions] = None,
        costs: Optional[KernelCostModel] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        profiler=None,
    ) -> None:
        self.spec = spec
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self.profiler = as_profiler(profiler)
        if machine is None:
            machine = MachineConfig.flash_ccnuma(
                n_cpus=spec.n_cpus, n_nodes=spec.n_nodes
            )
        if machine.n_cpus != spec.n_cpus or machine.n_nodes != spec.n_nodes:
            raise ConfigurationError(
                "machine CPU/node counts must match the workload spec"
            )
        self.machine = machine
        self.params = params or PolicyParameters.base()
        self.options = options or SimulatorOptions()
        self.costs = costs

    # -- machine-label helper ----------------------------------------------------

    def _machine_label(self) -> str:
        remote = self.machine.memory.remote_ns
        if remote >= 2500:
            return "CC-NOW"
        if self.machine.network.hop_ns == 0:
            return "zero-network"
        return "CC-NUMA"

    # -- the run --------------------------------------------------------------------

    def run(self, trace: Optional[Trace] = None) -> SimulationResult:
        """Execute the workload and return the full result."""
        spec = self.spec
        if trace is None:
            trace = generate_trace(spec)
        # Spans wrap the run's phases (setup / replay / finalize), never
        # the per-event loop body, so profiling costs nothing per miss
        # and cannot perturb the simulated result.
        with self.profiler.span("sim.run", items=len(trace)):
            with self.profiler.span("sim.setup"):
                system = NumaSystem(
                    self.machine,
                    self.params,
                    self.options,
                    frames_per_node=spec.frames_per_node,
                    costs=self.costs,
                    tracer=self.tracer,
                    metrics=self.metrics,
                )
            with self.profiler.span("sim.replay", items=len(trace)):
                self._emit_run_meta()
                system.feed(
                    trace.time_ns, trace.cpu, trace.process, trace.page,
                    trace.weight, trace.is_write, trace.is_instr,
                    trace.is_kernel,
                )
            with self.profiler.span("sim.finalize"):
                system.flush_pager()
                result = self._result(system)
        return result

    def _emit_run_meta(self) -> None:
        tracer, machine, params = self.tracer, self.machine, self.params
        if tracer.wants(RunMeta.KIND):
            tracer.emit(
                RunMeta(
                    t=0,
                    label=f"{self.spec.name}:{self.options.label}",
                    n_cpus=machine.n_cpus,
                    n_nodes=machine.n_nodes,
                    local_ns=float(machine.memory.local_ns),
                    remote_ns=float(machine.memory.remote_ns),
                    trigger=params.trigger_threshold,
                    reset_interval_ns=params.reset_interval_ns,
                )
            )

    def _result(self, system: NumaSystem) -> SimulationResult:
        """Gather a drained system's state into the run's result."""
        spec, memory, vm = self.spec, system.memory, system.vm
        result = SimulationResult(
            workload=spec.name,
            policy=self.options.label,
            machine=self._machine_label(),
            compute_time_ns=float(spec.compute_time_ns),
            idle_time_ns=float(spec.idle_time_ns()),
            stall=system.stall,
            accounting=system.accounting,
            tally=system.tally,
            contention=ContentionStats(
                remote_handler_invocations=memory.remote_handler_invocations,
                average_network_queue_length=(
                    memory.average_network_queue_length(max(system.now_ns, 1))
                ),
                max_controller_occupancy=memory.max_controller_occupancy(),
                average_local_latency_ns=memory.average_local_latency(),
                average_remote_latency_ns=memory.average_remote_latency(),
            ),
            collapses=system.collapser.collapses,
            base_pages=vm.stats.base_pages,
            peak_replica_frames=vm.allocator.peak_replica_frames,
        )
        # The registry is the source of truth; the legacy ``extra`` keys are
        # served from it so pre-registry consumers keep working unchanged.
        result.metrics = system.metrics.collect()
        legacy = dict(_LEGACY_EXTRA)
        if system.adaptive is not None:
            legacy.update(_LEGACY_EXTRA_ADAPTIVE)
        for extra_key, metric_name in legacy.items():
            result.extra[extra_key] = float(result.metrics[metric_name])
        vm.check_invariants()
        return result


def _comparison_leg(
    spec: WorkloadSpec,
    trace: Trace,
    machine: Optional[MachineConfig],
    params: Optional[PolicyParameters],
    options: SimulatorOptions,
    tracer=None,
    profiler=None,
) -> SimulationResult:
    """One leg of the FT-vs-Mig/Rep comparison (top-level: picklable)."""
    sim = SystemSimulator(
        spec, machine=machine, params=params, options=options,
        tracer=tracer, profiler=profiler,
    )
    return sim.run(trace)


def run_policy_comparison(
    spec: WorkloadSpec,
    trace: Optional[Trace] = None,
    machine: Optional[MachineConfig] = None,
    params: Optional[PolicyParameters] = None,
    shootdown_mode: ShootdownMode = ShootdownMode.ALL_CPUS,
    adaptive_trigger: bool = False,
    jobs: int = 1,
    tracer=None,
    profiler=None,
) -> Dict[str, SimulationResult]:
    """Run FT (static) and Mig/Rep (dynamic) on one workload (Figure 3).

    ``tracer`` records the Mig/Rep leg only (the FT baseline makes no
    decisions); ``profiler`` times both legs.  With ``jobs > 1`` and
    neither set, the two legs run in separate worker processes (they
    are independent); any failure to start a pool degrades silently to
    the serial path.
    """
    if trace is None:
        trace = generate_trace(spec)
    legs = [
        SimulatorOptions(dynamic=False, shootdown_mode=shootdown_mode),
        SimulatorOptions(
            dynamic=True,
            shootdown_mode=shootdown_mode,
            adaptive_trigger=adaptive_trigger,
        ),
    ]
    if jobs > 1 and tracer is None and profiler is None:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(
                        _comparison_leg, spec, trace, machine, params, options
                    )
                    for options in legs
                ]
                return {
                    options.label: future.result()
                    for options, future in zip(legs, futures)
                }
        except (OSError, NotImplementedError, PermissionError,
                BrokenProcessPool):
            pass  # fall through to the serial path
    return {
        options.label: _comparison_leg(
            spec, trace, machine, params, options,
            tracer=tracer if options.dynamic else None, profiler=profiler,
        )
        for options in legs
    }
