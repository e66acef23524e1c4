"""An interactive NUMA-kernel facade: feed misses, get locality.

:class:`NumaSystem` packages the full stack — VM, directory counters,
pager, collapse path, contention-modelled memory — behind a single
``miss()`` call, so a caller can drive the paper's machinery from any
event source (a custom generator, a parsed trace from another simulator,
a live experiment) without constructing a :class:`~repro.workloads.spec.
WorkloadSpec`:

    system = NumaSystem(MachineConfig.flash_ccnuma(), PolicyParameters.base())
    for event in my_events:
        outcome = system.miss(event.t, event.cpu, event.pid, event.page,
                              weight=event.n, write=event.is_write)
        total_stall += outcome.stall_ns
    print(system.local_fraction, system.tally.percentages())

The semantics are identical to :class:`~repro.sim.simulator.
SystemSimulator`'s inner loop; the simulator remains the optimised path
for whole-workload runs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.kernel.pager.collapse import CollapseHandler
from repro.kernel.pager.costs import KernelCostAccounting, KernelCostModel
from repro.kernel.pager.handler import ActionTally, PagerHandler
from repro.kernel.vm.shootdown import ShootdownMode
from repro.kernel.vm.system import VmSystem
from repro.machine.config import MachineConfig
from repro.machine.directory import DirectoryArray
from repro.machine.memory import NumaMemorySystem
from repro.policy.parameters import PolicyParameters


@dataclass(frozen=True)
class MissOutcome:
    """What one (weighted) miss experienced."""

    node: int               # node that serviced the miss
    is_local: bool
    latency_ns: float       # per-miss latency including queuing
    stall_ns: float         # latency x weight
    collapsed: bool         # a write hit a replicated page


class NumaSystem:
    """A live CC-NUMA machine + kernel accepting a miss stream."""

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        params: Optional[PolicyParameters] = None,
        dynamic: bool = True,
        shootdown_mode: ShootdownMode = ShootdownMode.ALL_CPUS,
        frames_per_node: Optional[int] = None,
        pager_delay_ns: int = 20_000_000,
        costs: Optional[KernelCostModel] = None,
    ) -> None:
        self.machine = machine or MachineConfig.flash_ccnuma()
        self.params = params or PolicyParameters.base()
        self.dynamic = dynamic
        self.pager_delay_ns = pager_delay_ns
        self.vm = VmSystem(
            self.machine.n_nodes,
            frames_per_node or self.machine.memory.frames_per_node,
        )
        self.memory = NumaMemorySystem(self.machine)
        self.directory = DirectoryArray(
            self.machine.n_cpus,
            trigger_threshold=self.params.trigger_threshold,
            sampling_rate=self.params.sampling_rate,
            batch_pages=self.params.batch_pages,
        )
        self.accounting = KernelCostAccounting()
        self.costs = costs or KernelCostModel.for_machine(self.machine)
        self._last_cpu: Dict[int, int] = {}
        self.pager = PagerHandler(
            vm=self.vm,
            directory=self.directory,
            params=self.params,
            costs=self.costs,
            accounting=self.accounting,
            n_cpus=self.machine.n_cpus,
            node_of_cpu=self.machine.node_of_cpu,
            node_of_process=self._node_of_process,
            cpu_of_process=self._last_cpu.get,
            shootdown_mode=shootdown_mode,
        )
        self.collapser = CollapseHandler(
            vm=self.vm,
            directory=self.directory,
            costs=self.costs,
            accounting=self.accounting,
            n_cpus=self.machine.n_cpus,
            node_of_cpu=self.machine.node_of_cpu,
            cpu_of_process=self._last_cpu.get,
            shootdown_mode=shootdown_mode,
        )
        self._pending: list = []
        self._pending_seq = itertools.count()
        self._next_reset = self.params.reset_interval_ns
        self._now = 0

    # -- helpers ------------------------------------------------------------------

    def _node_of_process(self, pid: int) -> int:
        return self.machine.node_of_cpu(self._last_cpu.get(pid, 0))

    def _advance(self, time_ns: int) -> None:
        """Service due pager interrupts and interval resets up to ``time_ns``."""
        if time_ns < self._now:
            raise ValueError("miss events must arrive in time order")
        self._now = time_ns
        while self._pending and self._pending[0][0] <= time_ns:
            due, _, batch = heapq.heappop(self._pending)
            self.pager.handle_batch(due, batch)
        if time_ns >= self._next_reset:
            self.flush_pager()
            self.directory.interval_reset()
            while self._next_reset <= time_ns:
                self._next_reset += self.params.reset_interval_ns

    # -- the event interface ----------------------------------------------------------

    def miss(
        self,
        time_ns: int,
        cpu: int,
        process: int,
        page: int,
        weight: int = 1,
        write: bool = False,
    ) -> MissOutcome:
        """Service ``weight`` identical secondary-cache misses.

        Faults the page in (first-touch) if needed, collapses replicas on
        a write, services the miss through the contention-modelled memory
        system, and counts it in the directory — possibly triggering a
        pager interrupt that fires ``pager_delay_ns`` later.
        """
        # The process's CPU is current before due interrupts are
        # serviced, exactly as in the simulator's loop.
        self._last_cpu[process] = cpu
        self._advance(time_ns)
        preferred = self.machine.node_of_cpu(cpu)
        pte = self.vm.fault(process, page, preferred)
        collapsed = False
        master = self.vm.master_of(page)
        if write and master is not None and master.has_replicas:
            collapsed = self.collapser.handle_write_fault(time_ns, page, cpu)
        frame = pte.frame
        service = self.memory.service_miss(time_ns, cpu, frame.node, weight)
        if self.dynamic:
            batch = self.directory.observe(
                page, cpu, write, weight,
                is_local=not service.is_remote,
                process=process,
            )
            if batch is not None:
                jitter = (cpu * 997_001) % 4_000_000
                heapq.heappush(
                    self._pending,
                    (time_ns + self.pager_delay_ns + jitter,
                     next(self._pending_seq), batch),
                )
        return MissOutcome(
            node=frame.node,
            is_local=not service.is_remote,
            latency_ns=service.latency_ns,
            stall_ns=service.latency_ns * weight,
            collapsed=collapsed,
        )

    def flush_pager(self) -> None:
        """Service every queued interrupt now (end of run / of interval)."""
        for batch in self.directory.drain():
            self.pager.handle_batch(self._now, batch)
        while self._pending:
            _, _, batch = heapq.heappop(self._pending)
            self.pager.handle_batch(self._now, batch)

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
