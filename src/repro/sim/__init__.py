"""Full-system simulation (the SimOS analogue for Section 7)."""

from repro.sim.results import ContentionStats, SimulationResult, StallBreakdown
from repro.sim.simulator import (
    MissOutcome,
    NumaSystem,
    SimulatorOptions,
    SystemSimulator,
    run_policy_comparison,
)

__all__ = [
    "MissOutcome",
    "NumaSystem",
    "ContentionStats",
    "SimulationResult",
    "StallBreakdown",
    "SimulatorOptions",
    "SystemSimulator",
    "run_policy_comparison",
]
