"""Interconnection network model.

Each node owns a network interface; a remote miss crosses the requester's
interface outbound and the home node's interface inbound (and the reply
crosses them the other way, folded into the same occupancy charge).  Link
occupancy drives utilisation-window queuing, which supplies the "average
network queue length for remote requests" statistic of Section 7.1.2.

``hop_ns`` is a pure propagation delay already included in the configured
minimum remote latency; this module only *adds* queuing delay beyond the
minimum and collects statistics.
"""

from __future__ import annotations

from typing import List

from repro.machine.config import MachineConfig
from repro.machine.contention import UtilisationWindow


class Interconnect:
    """Per-node network interfaces with utilisation-based queuing."""

    def __init__(self, config: MachineConfig, window_ns: int = 1_000_000) -> None:
        self.config = config
        net = config.network
        self.links: List[UtilisationWindow] = [
            UtilisationWindow(window_ns, net.max_utilisation)
            for _ in range(config.n_nodes)
        ]
        self.link_occupancy_ns = net.link_occupancy_ns
        self.remote_requests = 0

    def traverse(self, now: int, src_node: int, dst_node: int, weight: int = 1) -> float:
        """Charge one remote request/reply pair; return added queuing delay (ns).

        ``src_node == dst_node`` is a local access and traverses nothing.
        """
        if src_node == dst_node:
            return 0.0
        self.remote_requests += weight
        delay = self.links[src_node].offer(now, self.link_occupancy_ns, weight)
        delay += self.links[dst_node].offer(now, self.link_occupancy_ns, weight)
        return delay

    def average_queue_length(self, now: int) -> float:
        """Mean of per-link time-averaged queue lengths."""
        if not self.links:
            return 0.0
        return sum(l.average_queue_length(now) for l in self.links) / len(self.links)

    def max_link_utilisation(self) -> float:
        """Highest window utilisation seen on any link."""
        return max((l.max_utilisation_seen for l in self.links), default=0.0)
