"""The NUMA memory system: per-node directory controllers and latencies.

A secondary-cache miss is serviced by the directory controller of the node
holding the frame ("home").  The latency charged is

    minimum latency (local or remote)
  + home controller queuing delay (utilisation model)
  + network queuing delay (for remote misses)

which reproduces the paper's observation that measured remote latency
(2279 ns) substantially exceeds the 1200 ns minimum because of controller
occupancy, and that improving locality lowers even *local* miss latency by
reducing contention (Section 7.1.2).

:meth:`NumaMemorySystem.service_miss` services one record.  A caller with
many records services them through the per-window latency table instead:
every queuing delay uses the previous window's utilisation, so within one
window a miss's latency depends only on its (requester node, home node)
pair.  :meth:`~NumaMemorySystem.latency_table` returns that table for a
window, the caller adds each record's weight to its pair's entry in
:attr:`~NumaMemorySystem.pair_counts`, and :meth:`~NumaMemorySystem.fold`
charges the counted work to the controllers and links, exactly as the
per-record offers would have.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, List, Optional

from repro.common.stats import OnlineStats
from repro.machine.config import MachineConfig
from repro.machine.contention import UtilisationWindow
from repro.machine.interconnect import Interconnect


@dataclass
class MissService:
    """Outcome of servicing one (possibly weighted) miss."""

    latency_ns: float          # per-miss latency including queuing
    is_remote: bool
    queue_delay_ns: float      # queuing component per miss


class NumaMemorySystem:
    """Latency and contention model for the machine's memory."""

    def __init__(self, config: MachineConfig, window_ns: int = 1_000_000) -> None:
        self.config = config
        self.interconnect = Interconnect(config, window_ns)
        mem = config.memory
        self._controllers: List[UtilisationWindow] = [
            UtilisationWindow(window_ns, config.network.max_utilisation)
            for _ in range(config.n_nodes)
        ]
        self._occupancy = mem.controller_occupancy_ns
        self._remote_extra = mem.remote_extra_occupancy_ns
        # statistics
        self.local_latency = OnlineStats()
        self.remote_latency = OnlineStats()
        self.remote_handler_invocations = 0
        self.local_misses = 0
        self.remote_misses = 0
        # The per-window table, indexed requester_node * n_nodes + home.
        self.window_ns = window_ns
        self.node_of_cpu = [
            config.node_of_cpu(cpu) for cpu in range(config.n_cpus)
        ]
        self.pair_counts: DefaultDict[int, int] = defaultdict(int)
        self._latency: List[float] = []
        self._queue: List[float] = []
        self._table_window: Optional[int] = None

    def service_miss(
        self, now: int, cpu: int, home_node: int, weight: int = 1
    ) -> MissService:
        """Service ``weight`` identical misses from ``cpu`` to ``home_node``."""
        cpu_node = self.config.node_of_cpu(cpu)
        remote = cpu_node != home_node
        mem = self.config.memory
        occupancy = self._occupancy + (self._remote_extra if remote else 0)
        queue = self._controllers[home_node].offer(now, occupancy, weight)
        if remote:
            # The requester-side controller also does work to forward the
            # request (MAGIC runs a handler on both ends).
            queue += self._controllers[cpu_node].offer(
                now, self._remote_extra, weight
            )
            queue += self.interconnect.traverse(now, cpu_node, home_node, weight)
            base = mem.remote_ns
            self.remote_misses += weight
            self.remote_handler_invocations += weight
        else:
            base = mem.local_ns
            self.local_misses += weight
        latency = base + queue
        (self.remote_latency if remote else self.local_latency).add(
            latency, weight
        )
        return MissService(latency_ns=latency, is_remote=remote, queue_delay_ns=queue)

    # -- the per-window table ----------------------------------------------

    def latency_table(self, window: int) -> List[float]:
        """Per-miss latencies in ``window``, indexed ``node * n_nodes + home``.

        Each entry is the float :meth:`service_miss` returns for a miss
        from ``node`` to ``home`` in that window, summed in the same
        order.  Asking for another window first folds the misses counted
        in the current one, and returns a new list.
        """
        if window == self._table_window:
            return self._latency
        self.fold()
        mem, n = self.config.memory, self.config.n_nodes
        occupancy, extra = self._occupancy, self._remote_extra
        link_occupancy = self.interconnect.link_occupancy_ns
        local, home, requester, link = [], [], [], []
        links = self.interconnect.links
        for controller, resource in zip(self._controllers, links):
            rho = controller.rho_at(window)
            local.append(occupancy * rho / (1.0 - rho))
            home.append((occupancy + extra) * rho / (1.0 - rho))
            requester.append(extra * rho / (1.0 - rho))
            rho = resource.rho_at(window)
            link.append(link_occupancy * rho / (1.0 - rho))
        queue = [
            (h_q + r_q) + (r_link + h_link)
            for r_q, r_link in zip(requester, link)
            for h_q, h_link in zip(home, link)
        ]
        queue[:: n + 1] = local
        latency = [mem.remote_ns + q for q in queue]
        latency[:: n + 1] = [mem.local_ns + q for q in local]
        self._queue, self._latency = queue, latency
        self._table_window = window
        return latency

    def table_service(self, node: int, home: int) -> MissService:
        """What a miss from ``node`` to ``home`` got in the table's window."""
        key = node * self.config.n_nodes + home
        return MissService(
            latency_ns=self._latency[key],
            is_remote=node != home,
            queue_delay_ns=self._queue[key],
        )

    def fold(self) -> None:
        """Charge :attr:`pair_counts` to the table's window and clear them.

        Afterwards every counter and resource reads as if each counted
        miss had gone through :meth:`service_miss`.  Folding part of a
        window is exact (the work is integer ns), so a caller may fold
        whenever it needs the counters current.
        """
        counts = self.pair_counts
        if not counts:
            return
        n, window = self.config.n_nodes, self._table_window
        occupancy, extra = self._occupancy, self._remote_extra
        work, requests, link_requests = [0] * n, [0] * n, [0] * n
        local = remote = 0
        for key, count in counts.items():
            node, home = divmod(key, n)
            requests[home] += count
            if node == home:
                work[home] += occupancy * count
                local += count
                continue
            # MAGIC runs a handler on both ends; the request and its reply
            # cross both nodes' network interfaces.
            work[home] += (occupancy + extra) * count
            work[node] += extra * count
            requests[node] += count
            link_requests[node] += count
            link_requests[home] += count
            remote += count
        # Only resources given work fold: a resource closes its previous
        # window when it is next given work, and the queue-length average
        # reads an unclosed last window at its running rate.
        for controller, busy, count in zip(self._controllers, work, requests):
            if count:
                controller.fold(window, busy, count)
        link_occupancy = self.interconnect.link_occupancy_ns
        for link, count in zip(self.interconnect.links, link_requests):
            if count:
                link.fold(window, link_occupancy * count, count)
        self.local_misses += local
        self.remote_misses += remote
        self.remote_handler_invocations += remote
        self.interconnect.remote_requests += remote
        counts.clear()

    # -- observability -----------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Register the memory system's statistics under ``machine.memory``.

        Counters are exposed as collect-time callbacks over the existing
        attributes and the live latency accumulators join a labeled
        histogram family, so servicing misses costs nothing extra.
        """
        registry.register_callback(
            "machine.memory.local_misses", lambda: self.local_misses
        )
        registry.register_callback(
            "machine.memory.remote_misses", lambda: self.remote_misses
        )
        registry.register_callback(
            "machine.memory.total_misses", lambda: self.total_misses
        )
        registry.register_callback(
            "machine.memory.local_fraction", lambda: self.local_fraction
        )
        registry.register_callback(
            "machine.memory.remote_handler_invocations",
            lambda: self.remote_handler_invocations,
        )
        registry.register_callback(
            "machine.memory.max_controller_occupancy",
            self.max_controller_occupancy,
        )
        family = registry.family("machine.memory.latency_ns")
        family.attach(self.local_latency, kind="local")
        family.attach(self.remote_latency, kind="remote")
        for node, controller in enumerate(self._controllers):
            controller.register_metrics(registry, f"machine.controller.node{node}")

    # -- section 7.1.2 statistics ------------------------------------------

    def max_controller_occupancy(self) -> float:
        """Highest directory-controller window utilisation observed."""
        return max((c.max_utilisation_seen for c in self._controllers), default=0.0)

    def average_network_queue_length(self, now: int) -> float:
        """Time-averaged interconnect queue length."""
        return self.interconnect.average_queue_length(now)

    def average_local_latency(self) -> float:
        """Mean serviced local-miss latency (ns)."""
        return self.local_latency.mean

    def average_remote_latency(self) -> float:
        """Mean serviced remote-miss latency (ns)."""
        return self.remote_latency.mean

    @property
    def total_misses(self) -> int:
        """All misses serviced so far."""
        return self.local_misses + self.remote_misses

    @property
    def local_fraction(self) -> float:
        """Fraction of misses satisfied from local memory."""
        total = self.total_misses
        return self.local_misses / total if total else 0.0
