"""PT-policy replay on hand-built traces: triggers, arbitration, charging.

Every scenario uses a 2-CPU / 2-node machine (one CPU per node, so
"thread" and "CPU" coincide exactly) with ``pt_span_pages=4`` and a
one-nanosecond decision delay, and drives the simulator with explicit
cost (data-miss) and driver (TLB-miss) traces so the expected counters
are small integers computed by hand.
"""

from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError, TraceError
from repro.obs.events import MissServiced, PtReplicate, ThreadMigrate
from repro.obs.tracer import Tracer
from repro.policy.parameters import PolicyParameters
from repro.ptpol.costs import PtCostModel
from repro.ptpol.sim import (
    PT_POLICIES,
    PT_POLICY_LABELS,
    PtPolicySimulator,
    params_for_pt_policy,
    simulate_ptpol,
)
from repro.ptpol.state import reconcile_events
from repro.trace.record import TraceBuilder


def _config(**overrides):
    from repro.trace.policysim import PolicySimConfig

    overrides.setdefault("n_cpus", 2)
    overrides.setdefault("n_nodes", 2)
    overrides.setdefault("pt_span_pages", 4)
    overrides.setdefault("decision_delay_ns", 1)
    overrides.setdefault("engine", "scalar")
    return PolicySimConfig(**overrides)


#: Easy-arithmetic action costs: replication is ruinously expensive,
#: thread migration nearly free, so the arbitration outcome is forced
#: by construction where a test wants it forced.
CHEAP_THREADS = PtCostModel(
    pt_replicate_ns=1_000_000,
    pt_update_ns=10,
    pt_shootdown_base_ns=100,
    pt_shootdown_per_cpu_ns=50,
    thread_migrate_ns=100,
)


def _trace(rows):
    """Build a trace from (time_ns, cpu, process, page, weight) tuples."""
    builder = TraceBuilder()
    for time_ns, cpu, process, page, weight in rows:
        builder.append(time_ns, cpu, process, page, weight=weight)
    return builder.build()


class TestWalkCosting:
    def test_ptft_walks_stay_remote_for_the_off_home_node(self):
        # CPU 0 (node 0) faults page 0 first, homing PT leaf 0 there.
        cost = _trace([(0, 0, 0, 0, 1)])
        # CPU 1 (node 1) then walks leaf 0 remotely; CPU 0 walks locally.
        driver = _trace([(10, 1, 1, 1, 2), (20, 0, 0, 2, 3)])
        cfg = _config()
        result, tally = simulate_ptpol(
            cost, "ptft", config=cfg, driver_trace=driver
        )
        assert tally.walks == 5
        assert tally.local_walks == 3
        assert tally.remote_walks == 2
        assert tally.walk_triggers == 0       # ptft never arms a counter
        assert tally.pt_replications == 0
        expected_walk_stall = 2 * cfg.pt_walk_remote_ns + 3 * cfg.pt_walk_local_ns
        assert result.extra["pt_walk_stall_ns"] == expected_walk_stall
        assert result.extra["pt_local_walk_stall_ns"] == 3 * cfg.pt_walk_local_ns
        # Total stall = one local data miss + the walk stall.
        assert result.stall_ns == cfg.local_ns + expected_walk_stall

    def test_extra_carries_the_full_pt_counter_block_as_floats(self):
        cost = _trace([(0, 0, 0, 0, 1)])
        driver = _trace([(10, 1, 1, 1, 1)])
        result, _ = simulate_ptpol(
            cost, "ptft", config=_config(), driver_trace=driver
        )
        for key in (
            "local_stall_ns", "pt_walks", "pt_local_walks",
            "pt_walk_stall_ns", "pt_local_walk_stall_ns",
            "pt_replications", "thread_migrations", "pt_updates",
            "pt_update_cost_ns", "pt_shootdowns", "pt_shootdown_cost_ns",
        ):
            assert isinstance(result.extra[key], float), key


class TestPtReplication:
    def test_remote_walk_trigger_builds_a_replica(self):
        cost = _trace([(0, 0, 0, 0, 1)])
        driver = _trace([
            (10, 1, 1, 0, 1),   # remote walk, counter -> 1
            (20, 1, 1, 1, 1),   # remote walk, counter -> 2: trigger
            (30, 1, 1, 2, 1),   # replica installed at t=21; local now
        ])
        result, tally = simulate_ptpol(
            cost, "ptrepl", config=_config(), trigger=4,
            costs=CHEAP_THREADS, driver_trace=driver,
        )
        assert tally.walk_triggers == 1
        assert tally.pt_replications == 1
        assert tally.pt_shootdowns == 1
        assert tally.walks == 3
        assert tally.local_walks == 1         # only the post-replica walk
        # One replica build plus one single-CPU root flush, nothing else.
        assert result.overhead_ns == (
            CHEAP_THREADS.pt_replicate_ns + CHEAP_THREADS.shootdown_ns(1)
        )
        assert result.extra["pt_shootdown_cost_ns"] == CHEAP_THREADS.shootdown_ns(1)

    def test_mapping_writes_propagate_to_standing_replicas(self):
        cost = _trace([
            (0, 0, 0, 0, 1),    # homes leaf 0 on node 0, maps page 0
            (30, 0, 0, 1, 1),   # after the replica: a new mapping in leaf 0
        ])
        driver = _trace([(10, 1, 1, 0, 1), (20, 1, 1, 1, 1)])
        result, tally = simulate_ptpol(
            cost, "ptrepl", config=_config(), trigger=4,
            costs=CHEAP_THREADS, driver_trace=driver,
        )
        assert tally.pt_replications == 1
        assert tally.pt_updates == 1          # one write x one replica
        assert result.extra["pt_update_cost_ns"] == CHEAP_THREADS.pt_update_ns
        assert result.overhead_ns == (
            CHEAP_THREADS.pt_replicate_ns
            + CHEAP_THREADS.shootdown_ns(1)
            + CHEAP_THREADS.pt_update_ns
        )

    def test_interval_reset_clears_the_walk_counters(self):
        params = PolicyParameters.pt_replication(
            trigger_threshold=4, pt_trigger_threshold=2,
            reset_interval_ns=1_000,
        )
        cost = _trace([(0, 0, 0, 0, 1)])
        # Two remote walks that would trigger together, split by a reset.
        driver = _trace([(500, 1, 1, 0, 1), (1_500, 1, 1, 1, 1)])
        sim = PtPolicySimulator(config=_config(), costs=CHEAP_THREADS)
        sim.simulate(cost, params, driver_trace=driver)
        assert sim.tally.walks == 2
        assert sim.tally.walk_triggers == 0
        assert sim.tally.pt_replications == 0


class TestCoPlacement:
    def _demand_scenario(self):
        """Thread 1 (CPU 1, node 1) works a data set that lives on node 0
        alongside PT leaf 0 — re-homing the thread is the obvious win."""
        cost = _trace([
            (0, 0, 0, 0, 1),    # CPU 0 homes leaf 0 and page 0 on node 0
            (10, 1, 1, 0, 5),   # thread 1's data misses, served from node 0
            (30, 1, 1, 0, 1),   # after the arbitration fires
        ])
        driver = _trace([
            (15, 1, 1, 0, 1),   # remote walk, counter -> 1
            (20, 1, 1, 1, 1),   # remote walk, counter -> 2: trigger
            (40, 1, 1, 2, 1),   # after the re-home: a local walk
        ])
        return cost, driver

    #: A quiet data policy (trigger 1000) with a live walk trigger of 2.
    PARAMS = PolicyParameters.co_placement(
        trigger_threshold=1_000, pt_trigger_threshold=2
    )

    def test_thread_migration_wins_when_data_lives_with_the_pt(self):
        cost, driver = self._demand_scenario()
        tracer = Tracer()
        sim = PtPolicySimulator(
            config=_config(), tracer=tracer, costs=CHEAP_THREADS
        )
        result = sim.simulate(cost, self.PARAMS, driver_trace=driver)
        tally = sim.tally
        assert tally.arbitrations == 1
        assert tally.thread_migrations == 1
        assert tally.pt_replications == 0
        # The re-home flips the thread's locality: its t=30 data miss and
        # t=40 walk are both served on node 0 now.
        assert result.local_misses == 2       # t=0 and t=30
        assert tally.local_walks == 1         # t=40
        assert result.overhead_ns == CHEAP_THREADS.thread_migrate_ns
        moves = [e for e in tracer.events() if isinstance(e, ThreadMigrate)]
        assert len(moves) == 1
        assert moves[0].process == 1
        assert moves[0].src == 1 and moves[0].dst == 0
        assert moves[0].reason == "cheaper-than-pt-replica"

    def test_events_reconcile_with_the_tally(self):
        cost, driver = self._demand_scenario()
        tracer = Tracer()
        sim = PtPolicySimulator(
            config=_config(), tracer=tracer, costs=CHEAP_THREADS
        )
        sim.simulate(cost, self.PARAMS, driver_trace=driver)
        assert reconcile_events(sim.tally, tracer.events()) == []

    def test_migration_cap_falls_back_to_replication(self):
        cost, driver = self._demand_scenario()
        params = PolicyParameters.co_placement(
            trigger_threshold=1_000, pt_trigger_threshold=2,
            max_thread_migrations=0,
        )
        tracer = Tracer()
        sim = PtPolicySimulator(
            config=_config(), tracer=tracer, costs=CHEAP_THREADS
        )
        sim.simulate(cost, params, driver_trace=driver)
        assert sim.tally.arbitrations == 1
        assert sim.tally.thread_migrations == 0
        assert sim.tally.pt_replications == 1
        replicas = [e for e in tracer.events() if isinstance(e, PtReplicate)]
        assert len(replicas) == 1
        assert replicas[0].reason == "thread-migrations-capped"

    def test_expensive_thread_migration_prefers_the_replica(self):
        cost, driver = self._demand_scenario()
        costs = PtCostModel(
            pt_replicate_ns=10,
            pt_update_ns=1,
            pt_shootdown_base_ns=1,
            pt_shootdown_per_cpu_ns=1,
            thread_migrate_ns=10_000_000,
        )
        tracer = Tracer()
        sim = PtPolicySimulator(config=_config(), tracer=tracer, costs=costs)
        sim.simulate(cost, self.PARAMS, driver_trace=driver)
        tally = sim.tally
        assert tally.thread_migrations == 0
        assert tally.pt_replications == 1
        replicas = [e for e in tracer.events() if isinstance(e, PtReplicate)]
        assert replicas[0].reason == "pt-replica-cheaper"


class TestEngineParity:
    def test_vector_engine_matches_scalar_by_name(self):
        cost = _trace([(0, 0, 0, 0, 1), (50, 1, 1, 4, 2)])
        driver = _trace([(10, 1, 1, 1, 1), (60, 0, 0, 5, 3)])
        results = {}
        for engine in ("scalar", "vector"):
            result, tally = simulate_ptpol(
                cost, "ptrepl", config=_config(engine=engine),
                driver_trace=driver,
            )
            results[engine] = (dict(vars(result)), tally)
        assert results["scalar"] == results["vector"]

    def test_vector_engine_runs_the_vector_core(self):
        cost = _trace([(0, 0, 0, 0, 1)])
        driver = _trace([(10, 1, 1, 1, 1)])
        from repro.obs.registry import MetricsRegistry

        metrics = MetricsRegistry()
        result, tally = simulate_ptpol(
            cost, "ptft", config=_config(engine="vector"),
            driver_trace=driver, metrics=metrics,
        )
        assert tally.walks == 1
        assert result.total_misses == 1
        assert metrics.counter("replay.engine.ptpol.vector").value == 1

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_driver_from_another_workload_rejected(self, engine):
        cost = _trace([(0, 0, 0, 0, 1)])
        driver = _trace([(10, 1, 1, 1, 1)])
        cost.meta = SimpleNamespace(name="engineering")
        driver.meta = SimpleNamespace(name="database")
        with pytest.raises(TraceError, match="different workloads"):
            simulate_ptpol(
                cost, "ptft", config=_config(engine=engine),
                driver_trace=driver,
            )

    def test_data_replication_parameters_are_rejected(self):
        # No PT-family policy enables data replication; the vector
        # engine's cold accounting leans on the single-copy invariant
        # and refuses a hand-built parameter set that breaks it.
        cost = _trace([(0, 0, 0, 0, 1)])
        sim = PtPolicySimulator(config=_config(engine="vector"))
        params = PolicyParameters(
            enable_replication=True, reset_interval_ns=10_000_000
        )
        with pytest.raises(ConfigurationError, match="--engine scalar"):
            sim.simulate(cost, params)


class TestParamsForPtPolicy:
    def test_unknown_token_raises(self):
        with pytest.raises(ConfigurationError, match="unknown PT policy"):
            params_for_pt_policy("mitosis")

    def test_walk_trigger_is_half_the_data_trigger_floored_at_one(self):
        assert params_for_pt_policy("ptrepl", trigger=7).pt_trigger_threshold == 3
        assert params_for_pt_policy("ptrepl", trigger=1).pt_trigger_threshold == 1

    def test_family_flags(self):
        ptft = params_for_pt_policy("ptft")
        assert not ptft.enable_migration and not ptft.enable_pt_replication
        ptmigr = params_for_pt_policy("ptmigr")
        assert ptmigr.enable_migration and not ptmigr.enable_pt_replication
        ptrepl = params_for_pt_policy("ptrepl")
        assert ptrepl.enable_pt_replication
        assert not ptrepl.enable_migration
        assert not ptrepl.enable_thread_migration
        coplace = params_for_pt_policy("coplace")
        assert coplace.enable_migration
        assert coplace.enable_pt_replication
        assert coplace.enable_thread_migration

    def test_every_policy_token_has_a_label(self):
        assert set(PT_POLICIES) == set(PT_POLICY_LABELS)
