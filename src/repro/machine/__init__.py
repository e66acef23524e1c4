"""The CC-NUMA hardware substrate: TLBs, memory, directory, interconnect."""

from repro.machine.config import (
    CacheConfig,
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    TlbConfig,
)
from repro.machine.contention import UtilisationWindow
from repro.machine.directory import (
    DirectoryArray,
    HotBatch,
    HotPageEvent,
    MissCounterBank,
    PageCounters,
    SamplingAccumulator,
    counter_space_overhead,
)
from repro.machine.interconnect import Interconnect
from repro.machine.memory import MissService, NumaMemorySystem
from repro.machine.tlb import Tlb, TlbArray

__all__ = [
    "CacheConfig",
    "MachineConfig",
    "MemoryConfig",
    "NetworkConfig",
    "TlbConfig",
    "UtilisationWindow",
    "DirectoryArray",
    "HotBatch",
    "HotPageEvent",
    "MissCounterBank",
    "PageCounters",
    "SamplingAccumulator",
    "counter_space_overhead",
    "Interconnect",
    "MissService",
    "NumaMemorySystem",
    "Tlb",
    "TlbArray",
]
