"""Machine parameter dataclasses for the simulated FLASH-like CC-NUMA box.

The defaults reproduce the configuration of Section 5 of the paper:

* 8 processors at 300 MHz, one per node, 64-entry TLBs;
* 32 KB 2-way split first-level caches with a 1-cycle hit;
* 512 KB 2-way unified secondary cache with a 50 ns hit time;
* 300 ns minimum local miss latency, 1200 ns minimum remote latency for
  CC-NUMA and 3000 ns for CC-NOW (the extra ~2000 ns models 1000 ft of
  fiber).

Use :meth:`MachineConfig.flash_ccnuma`, :meth:`MachineConfig.flash_ccnow`
and :meth:`MachineConfig.zero_network` for the three configurations the
paper evaluates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.units import KB, PAGE_SIZE


def _check_whole_ns(*occupancies) -> None:
    """Occupancies are whole nanoseconds.

    The memory system sums occupancy work per window in any grouping
    (see ``repro.machine.contention``); integer work keeps those float
    sums exact.
    """
    if any(int(value) != value for value in occupancies):
        raise ConfigurationError("occupancies must be whole nanoseconds")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    size_bytes: int
    associativity: int
    line_size: int
    hit_ns: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_size <= 0 or self.associativity <= 0:
            raise ConfigurationError("cache dimensions must be positive")
        n_lines = self.size_bytes // self.line_size
        if n_lines * self.line_size != self.size_bytes:
            raise ConfigurationError("cache size must be a multiple of line size")
        if n_lines % self.associativity != 0:
            raise ConfigurationError(
                "line count must be divisible by associativity"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // self.line_size // self.associativity


@dataclass(frozen=True)
class TlbConfig:
    """TLB geometry (fully associative, LRU, as a MIPS R4000-class TLB)."""

    entries: int = 64

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigurationError("TLB must have at least one entry")


@dataclass(frozen=True)
class MemoryConfig:
    """NUMA memory latencies and per-node capacity.

    ``controller_occupancy_ns`` is the time the home directory controller
    is busy servicing one miss; it is the source of the queuing delays the
    paper observes (a 2279 ns measured remote latency against a 1200 ns
    minimum, Section 7.1.3).
    """

    local_ns: int = 300
    remote_ns: int = 1200
    frames_per_node: int = 4096          # 16 MB of 4 KB frames per node
    controller_occupancy_ns: int = 160
    remote_extra_occupancy_ns: int = 90  # extra home-node work for remote misses

    def __post_init__(self) -> None:
        if self.local_ns <= 0 or self.remote_ns <= 0:
            raise ConfigurationError("memory latencies must be positive")
        if self.remote_ns < self.local_ns:
            raise ConfigurationError("remote latency cannot be below local")
        if self.frames_per_node <= 0:
            raise ConfigurationError("nodes need at least one frame")
        if self.controller_occupancy_ns < 0 or self.remote_extra_occupancy_ns < 0:
            raise ConfigurationError("occupancies must be non-negative")
        _check_whole_ns(
            self.controller_occupancy_ns, self.remote_extra_occupancy_ns
        )


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect delay model.

    The one-way ``hop_ns`` is already folded into ``MemoryConfig.remote_ns``
    as a *minimum*; the network model adds utilisation-dependent queuing on
    top and tracks the queue-length statistics of Section 7.1.2.
    """

    hop_ns: int = 200
    link_occupancy_ns: int = 60
    max_utilisation: float = 0.95

    def __post_init__(self) -> None:
        if self.hop_ns < 0 or self.link_occupancy_ns < 0:
            raise ConfigurationError("network delays must be non-negative")
        _check_whole_ns(self.link_occupancy_ns)
        if not 0.0 < self.max_utilisation < 1.0:
            raise ConfigurationError("max_utilisation must lie in (0, 1)")


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of the simulated machine."""

    n_cpus: int = 8
    n_nodes: int = 8
    cpu_mhz: int = 300
    page_size: int = PAGE_SIZE
    l1i: CacheConfig = CacheConfig(32 * KB, 2, 32, hit_ns=3.3)
    l1d: CacheConfig = CacheConfig(32 * KB, 2, 32, hit_ns=3.3)
    l2: CacheConfig = CacheConfig(512 * KB, 2, 128, hit_ns=50.0)
    tlb: TlbConfig = TlbConfig(64)
    memory: MemoryConfig = MemoryConfig()
    network: NetworkConfig = NetworkConfig()

    def __post_init__(self) -> None:
        if self.n_cpus <= 0 or self.n_nodes <= 0:
            raise ConfigurationError("need at least one CPU and one node")
        if self.n_cpus % self.n_nodes != 0:
            raise ConfigurationError("CPUs must divide evenly across nodes")
        if self.page_size <= 0:
            raise ConfigurationError("page size must be positive")

    # -- derived quantities -------------------------------------------------

    @property
    def cpus_per_node(self) -> int:
        """Processors per NUMA node (1 on FLASH)."""
        return self.n_cpus // self.n_nodes

    def node_of_cpu(self, cpu: int) -> int:
        """Home node of ``cpu``."""
        if not 0 <= cpu < self.n_cpus:
            raise ConfigurationError(f"cpu {cpu} out of range")
        return cpu // self.cpus_per_node

    def cpus_of_node(self, node: int) -> range:
        """CPU ids resident on ``node``."""
        if not 0 <= node < self.n_nodes:
            raise ConfigurationError(f"node {node} out of range")
        per = self.cpus_per_node
        return range(node * per, (node + 1) * per)

    @property
    def total_frames(self) -> int:
        """Machine-wide page-frame count."""
        return self.memory.frames_per_node * self.n_nodes

    @property
    def total_memory_bytes(self) -> int:
        """Machine-wide physical memory."""
        return self.total_frames * self.page_size

    @property
    def remote_to_local_ratio(self) -> float:
        """Minimum remote:local latency ratio (4:1 for CC-NUMA here)."""
        return self.memory.remote_ns / self.memory.local_ns

    # -- canonical configurations -------------------------------------------

    @classmethod
    def flash_ccnuma(cls, **overrides) -> "MachineConfig":
        """The 8-processor CC-NUMA FLASH configuration of Section 5."""
        return cls(**overrides)

    @classmethod
    def flash_ccnow(cls, **overrides) -> "MachineConfig":
        """CC-NOW variant: 3000 ns minimum remote latency (Section 7.1.3)."""
        memory = overrides.pop(
            "memory", MemoryConfig(remote_ns=3000)
        )
        network = overrides.pop("network", NetworkConfig(hop_ns=1100))
        return cls(memory=memory, network=network, **overrides)

    @classmethod
    def zero_network(cls, **overrides) -> "MachineConfig":
        """Zero interconnect delay setup used in Section 7.1.2.

        Remote latency collapses to the local latency plus only the home
        controller occupancy; any remaining benefit of locality comes from
        contention, which is the point of the experiment.
        """
        memory = overrides.pop(
            "memory",
            MemoryConfig(remote_ns=300, controller_occupancy_ns=160,
                         remote_extra_occupancy_ns=90),
        )
        network = overrides.pop("network", NetworkConfig(hop_ns=0))
        return cls(memory=memory, network=network, **overrides)

    def with_memory(self, **changes) -> "MachineConfig":
        """Return a copy with ``MemoryConfig`` fields replaced."""
        return dataclasses.replace(
            self, memory=dataclasses.replace(self.memory, **changes)
        )

    def with_network(self, **changes) -> "MachineConfig":
        """Return a copy with ``NetworkConfig`` fields replaced."""
        return dataclasses.replace(
            self, network=dataclasses.replace(self.network, **changes)
        )
