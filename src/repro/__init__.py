"""repro — a reproduction of *Operating System Support for Improving Data
Locality on CC-NUMA Compute Servers* (Verghese, Devine, Gupta, Rosenblum;
ASPLOS 1996).

The package implements the paper's full experimental apparatus in Python:

* :mod:`repro.machine` — the CC-NUMA hardware substrate (caches, TLBs,
  NUMA memory with contention, the FLASH-style directory controller with
  per-page per-CPU miss counters and hot-page interrupts);
* :mod:`repro.kernel` — the IRIX-like OS substrate (page frames, replica
  chains, page hash table, page tables with back-mappings, per-node
  allocation, simulated locks, TLB shootdown, three schedulers, and the
  pager that executes the paper's Figure 2);
* :mod:`repro.policy` — the contribution itself: the Table 1 parameters,
  the Figure 1 decision tree, static placements, and the approximate
  information metrics of Section 8.3;
* :mod:`repro.workloads` — synthetic analogues of the five workloads;
* :mod:`repro.sim` — the full-system simulator (Section 7);
* :mod:`repro.trace` — traces and the contentionless trace-driven policy
  simulator (Section 8);
* :mod:`repro.analysis` — read-chain analysis and table rendering.

Quickstart::

    from repro import load_workload, run_policy_comparison

    spec, trace = load_workload("engineering", scale=0.1)
    results = run_policy_comparison(spec, trace)
    ft, mig_rep = results["FT"], results["Mig/Rep"]
    print(f"{mig_rep.improvement_over(ft):.1f}% faster than first-touch")
"""

from repro.machine.config import MachineConfig
from repro.policy.decision import Action, Decision, Reason, decide
from repro.policy.metrics import (
    ALL_METRICS,
    FULL_CACHE,
    FULL_TLB,
    SAMPLED_CACHE,
    SAMPLED_TLB,
    Metric,
)
from repro.policy.parameters import PolicyParameters
from repro.sim.results import SimulationResult
from repro.sim.simulator import (
    MissOutcome,
    NumaSystem,
    SimulatorOptions,
    SystemSimulator,
    run_policy_comparison,
)
from repro.trace.policysim import (
    PolicySimConfig,
    PolicySimResult,
    StaticPolicy,
    TracePolicySimulator,
)
from repro.trace.record import Trace, TraceBuilder
from repro.trace.tlbsim import derive_tlb_trace
from repro.workloads import WORKLOAD_NAMES, build_spec, load_workload

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "Action",
    "Decision",
    "Reason",
    "decide",
    "ALL_METRICS",
    "FULL_CACHE",
    "FULL_TLB",
    "SAMPLED_CACHE",
    "SAMPLED_TLB",
    "Metric",
    "PolicyParameters",
    "MissOutcome",
    "NumaSystem",
    "SimulationResult",
    "SimulatorOptions",
    "SystemSimulator",
    "run_policy_comparison",
    "PolicySimConfig",
    "PolicySimResult",
    "StaticPolicy",
    "TracePolicySimulator",
    "Trace",
    "TraceBuilder",
    "derive_tlb_trace",
    "WORKLOAD_NAMES",
    "build_spec",
    "load_workload",
    "__version__",
]
