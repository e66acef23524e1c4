"""The four benchmark workloads, as lists of timed operations.

Each workload has a ``setup`` (timed as ``setup_s``: imports are paid by
the caller, then code-version tokens, specs and the decode of the warm
trace store) and a list of :class:`Op`.  An op's ``run`` is the timed
call; its ``check`` runs untimed afterwards and turns the value into an
:class:`Outcome` — a digest of the output, the trace records the op fed
to the layers under test, and an error string when the output is wrong.

Every function of the program is looked up on its module at call time,
never bound at import, so the boundary wrappers of :mod:`spans` see the
calls the benchmark makes as well as the calls the layers make.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

# Input sizes are the scales the experiments are usually run at:
# ``fullsys`` keeps the scale the repo's Fig. 3 numbers are quoted at,
# so ``paper_err_pp`` is the Fig. 3 error; ``record`` records the full
# traces.

#: The four user workloads of Figures 3, 6, 8 and 9.
USER_WORKLOADS = ("engineering", "raytrace", "splash", "database")

#: The paper's Figure 3: (memory-stall reduction %, execution-time
#: improvement %) of Mig/Rep over first touch.
PAPER_FIG3 = {
    "engineering": (52.0, 29.0),
    "raytrace": (36.0, 15.0),
    "splash": (24.0, 4.0),
    "database": (10.0, 5.0),
}

@dataclass
class Outcome:
    """What one execution of an op produced (filled in untimed)."""

    digest: str
    records: int
    error: Optional[str] = None
    #: Result objects the per-layer counts are read from.
    results: List[Any] = field(default_factory=list)
    #: Extra exact counts the op measured (store bytes, log size, ...).
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def sha256_json(data: Any) -> str:
    """sha256 of the canonical (sorted-key, compact) JSON of ``data``."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: A trace's columns, in the order its digest covers them.
TRACE_COLUMNS = ("time_ns", "cpu", "process", "page", "weight", "flags")


def trace_digest(trace) -> str:
    """sha256 over every column of a trace, in a fixed order."""
    digest = hashlib.sha256()
    for column in TRACE_COLUMNS:
        digest.update(getattr(trace, column).tobytes())
    return digest.hexdigest()


def _tokens() -> None:
    """Compute the code-version tokens the result cache and store key on."""
    from repro.exp import cache
    from repro.store import tracestore

    cache.code_version_token()
    tracestore.generator_code_token()


class _GridWorkload:
    """Experiment specs run one by one through ``SweepRunner``."""

    name = ""
    scale = 0.0
    #: Workloads whose traces the warm store must hold.
    replayed = USER_WORKLOADS

    def grid(self, seed: int) -> List[Any]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> None:
        from repro import workloads
        from repro.exp.runner import SweepRunner

        _tokens()
        self.specs = self.grid(seed)
        self.records = {}
        for name in sorted({spec.workload for spec in self.specs}):
            _, trace = workloads.load_workload(
                name, scale=self.scale, seed=seed
            )
            self.records[name] = self.stream_records(trace)
        # No result cache (every run would otherwise be a cache hit that
        # measures nothing) and no pool workers: one serial process.
        self.runner = SweepRunner(cache=None, jobs=1)

    @staticmethod
    def stream_records(trace) -> int:
        return len(trace)

    def ops(self) -> List[Op]:
        return [
            Op(spec.label(), self._runner_for(spec), self._checker_for(spec))
            for spec in self.specs
        ]

    def _runner_for(self, spec):
        return lambda: self.runner.run([spec]).outcomes[0]

    def _checker_for(self, spec):
        records = self.records[spec.workload]

        def check(outcome) -> Outcome:
            if not outcome.ok:
                return Outcome("", records, error=outcome.error)
            result = outcome.result
            error = None
            if outcome.attempts != 1:
                error = f"needed {outcome.attempts} attempts"
            return Outcome(sha256_json(result.to_dict()), records,
                           error=error, results=[result])

        return check


class FullSys(_GridWorkload):
    """Figure 3: FT and Mig/Rep ``SystemSimulator`` runs, four workloads."""

    name = "fullsys"
    scale = 0.25

    def grid(self, seed: int) -> List[Any]:
        from repro.exp import spec

        return spec.figure3_grid(scale=self.scale, seed=seed)


class Replay(_GridWorkload):
    """The Section 8 trace grids on the vector replay engine."""

    name = "replay"
    scale = 0.25

    def grid(self, seed: int) -> List[Any]:
        from repro.exp import spec

        kw = dict(scale=self.scale, seed=seed)
        fig8 = spec.sweep(
            spec.USER_WORKLOADS, kinds=("trace",), policies=("migrep",),
            metrics=("SC", "FT", "ST"), scales=(self.scale,), seeds=(seed,),
        )
        return (
            spec.figure6_grid(**kw) + spec.figure9_grid(**kw) + fig8
            + spec.ptpol6_grid(**kw) + spec.ptpol9_grid(**kw)
        )

    @staticmethod
    def stream_records(trace) -> int:
        # Every cell replays the user-mode stream.
        return len(trace) - int(trace.is_kernel.sum())


class Record:
    """Cold recording of all five workloads into a fresh ``TraceStore``."""

    name = "record"
    scale = 1.0
    replayed = ()

    def setup(self, seed: int, workdir: Path) -> None:
        from repro import workloads

        _tokens()
        self.root = workdir / "record"
        self.specs = [
            workloads.build_spec(name, scale=self.scale, seed=seed)
            for name in workloads.WORKLOAD_NAMES
        ]

    def ops(self) -> List[Op]:
        return [
            Op(f"record:{spec.name}", self._runner_for(spec),
               self._checker_for(spec))
            for spec in self.specs
        ]

    def _runner_for(self, spec):
        from repro import store, workloads

        directory = self.root / spec.name

        def run():
            # The body of ``record_workload``, unrolled so the original
            # trace stays alive for the read-back comparison.  The
            # process-wide ``load_workload`` memo is never touched.
            shutil.rmtree(directory, ignore_errors=True)
            trace_store = store.TraceStore(directory)
            trace = workloads.generate_trace(spec)
            trace_store.put(spec.identity(), trace)
            back = trace_store.get(spec.identity(), meta=spec)
            return trace, back, trace_store

        return run

    def _checker_for(self, spec):
        directory = self.root / spec.name

        def check(value) -> Outcome:
            trace, back, trace_store = value
            stats = trace_store.stats()
            shutil.rmtree(directory, ignore_errors=True)
            raw = sum(getattr(trace, c).nbytes for c in TRACE_COLUMNS)
            counts = {
                "store.bytes_written": stats["bytes_written"],
                "store.raw_bytes": raw,
                "store.hits": stats["hits"],
                "store.misses": stats["misses"],
            }
            if back is None:
                return Outcome("", len(trace), error="read-back missed",
                               counts=counts)
            digest = trace_digest(back)
            error = None
            if digest != trace_digest(trace):
                error = "read-back columns differ from the original"
            return Outcome(digest, len(trace), error=error, counts=counts)

        return check


class Traced:
    """Two Mig/Rep runs streaming every event to JSONL, then attributed."""

    name = "traced"
    scale = 0.25
    replayed = ("engineering", "splash")

    def setup(self, seed: int, workdir: Path) -> None:
        from repro import workloads
        from repro.exp import spec as exp_spec

        _tokens()
        self.logs = workdir / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.eng_spec, self.eng_trace = workloads.load_workload(
            "engineering", scale=self.scale, seed=seed
        )
        self.spl_spec, self.spl_trace = workloads.load_workload(
            "splash", scale=self.scale, seed=seed
        )
        self.eng_params = exp_spec.params_for("engineering", None)
        self.spl_params = exp_spec.params_for("splash", None)
        self.machine = exp_spec.machine_for("ccnuma", self.eng_spec)
        self._last: Dict[str, Any] = {}

    def _tracer(self, path: Path):
        from repro.obs import export, tracer

        # kinds=None: every event, per-miss MissServiced included.
        return tracer.Tracer(sinks=[export.JsonlSink(str(path))])

    def _run_system(self):
        from repro.sim import simulator

        path = self.logs / "engineering.jsonl"
        trc = self._tracer(path)
        try:
            result = simulator.SystemSimulator(
                self.eng_spec, machine=self.machine, params=self.eng_params,
                options=simulator.SimulatorOptions(dynamic=True), tracer=trc,
            ).run(self.eng_trace)
        finally:
            trc.close()
        return result, trc, path, len(self.eng_trace)

    def _run_policysim(self):
        from repro.trace import policysim

        path = self.logs / "splash.jsonl"
        trc = self._tracer(path)
        try:
            stream = self.spl_trace.user_only()
            sim = policysim.TracePolicySimulator(
                policysim.PolicySimConfig(
                    n_cpus=self.spl_spec.n_cpus, n_nodes=self.spl_spec.n_nodes
                ),
                tracer=trc,
            )
            result = sim.simulate_dynamic(stream, self.spl_params,
                                          label="Mig/Rep")
        finally:
            trc.close()
        return result, trc, path, len(stream)

    def _check_log(self, key: str):
        def check(value) -> Outcome:
            result, trc, path, records = value
            self._last[key] = (result, path)
            sink = trc.sinks[0]
            log_sha = hashlib.sha256(path.read_bytes()).hexdigest()
            return Outcome(
                sha256_json({"result": result.to_dict(), "log": log_sha}),
                records,
                results=[result],
                counts={"obs.events_written": sink.written,
                        "obs.log_bytes": path.stat().st_size},
            )

        return check

    def _attribute(self, key: str):
        from repro.obs import attrib, export

        def run():
            result, path = self._last[key]
            expected = (
                attrib.expected_from_system(result)
                if key == "engineering"
                else attrib.expected_from_policysim(result)
            )
            analysis = attrib.Attribution.from_events(
                export.iter_events(str(path))
            )
            return analysis, analysis.reconcile(expected)

        return run

    @staticmethod
    def _check_attribution(value) -> Outcome:
        analysis, errors = value
        summary = {
            "events": analysis.events,
            "pages": len(analysis.pages),
            "intervals": len(analysis.intervals),
            "misses": analysis.misses,
            "stall_ns": analysis.stall_ns,
            "decisions": analysis.decisions,
            "action_cost_ns": analysis.action_cost_ns,
            "shootdown_cost_ns": analysis.shootdown_cost_ns,
        }
        return Outcome(
            sha256_json(summary), 0,
            error="; ".join(errors) if errors else None,
            counts={"obs.reconcile_errors": len(errors)},
        )

    def ops(self) -> List[Op]:
        return [
            Op("sim:engineering:migrep", self._run_system,
               self._check_log("engineering")),
            Op("attrib:engineering", self._attribute("engineering"),
               self._check_attribution),
            Op("tracesim:splash:migrep", self._run_policysim,
               self._check_log("splash")),
            Op("attrib:splash", self._attribute("splash"),
               self._check_attribution),
        ]


WORKLOADS = {cls.name: cls for cls in (FullSys, Replay, Record, Traced)}


# -- per-layer counts --------------------------------------------------------------

#: Exact per-layer counts read from result fields and store stats:
#: name -> (unit, better).
COUNT_METRICS = {
    "machine.misses": ("count", "lower"),
    "machine.remote_frac": ("fraction", "lower"),
    "machine.controller.max_util": ("fraction", "lower"),
    "machine.remote_handler_invocations": ("count", "lower"),
    "machine.directory.hot_events": ("count", "lower"),
    "kernel.overhead_s": ("s", "lower"),
    "kernel.migrations": ("count", "lower"),
    "kernel.replications": ("count", "lower"),
    "kernel.collapses": ("count", "lower"),
    "kernel.tlbs_flushed": ("count", "lower"),
    "kernel.memlock_wait_s": ("s", "lower"),
    "policy.action_ratio": ("fraction", "higher"),
    "policy.no_page_ratio": ("fraction", "lower"),
    "sim.stall_s": ("s", "lower"),
    "sim.exec_s": ("s", "lower"),
    "trace.events": ("count", "lower"),
    "trace.tlb_misses": ("count", "lower"),
    "ptpol.pt_replications": ("count", "lower"),
    "ptpol.thread_migrations": ("count", "lower"),
    "store.bytes_written": ("bytes", "lower"),
    "store.compression_ratio": ("ratio", "higher"),
    "store.hits": ("count", "higher"),
    "store.misses": ("count", "lower"),
    "obs.events_written": ("count", "lower"),
    "obs.log_bytes": ("bytes", "lower"),
    "obs.reconcile_errors": ("count", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(outcomes: List[Outcome]) -> Dict[str, float]:
    """Fold one pass's outcomes into the :data:`COUNT_METRICS`.

    Simulated seconds come from the modelled machine, not the host.
    Metrics of a layer the workload does not reach read 0.
    """
    systems, cells = [], []
    extra: Dict[str, float] = {}
    for outcome in outcomes:
        for result in outcome.results:
            (systems if hasattr(result, "stall") else cells).append(result)
        for key, value in outcome.counts.items():
            extra[key] = extra.get(key, 0) + value
    misses = sum(r.stall.total_misses for r in systems)
    dynamic = [r for r in systems if r.policy == "Mig/Rep"]
    hot = sum(r.tally.hot_pages for r in systems) + sum(
        r.hot_events for r in cells
    )
    acted = sum(r.tally.migrated + r.tally.replicated for r in systems) + sum(
        r.migrations + r.replications for r in cells
    )
    return {
        "machine.misses": misses,
        "machine.remote_frac": _ratio(
            sum(r.stall.remote_misses for r in systems), misses
        ),
        "machine.controller.max_util": max(
            [r.contention.max_controller_occupancy for r in systems],
            default=0.0,
        ),
        "machine.remote_handler_invocations": sum(
            r.contention.remote_handler_invocations for r in systems
        ),
        "machine.directory.hot_events": sum(
            r.metrics.get("machine.directory.triggers", 0.0) for r in systems
        ),
        "kernel.overhead_s": sum(r.kernel_overhead_ns for r in systems) / 1e9,
        "kernel.migrations": sum(r.tally.migrated for r in systems),
        "kernel.replications": sum(r.tally.replicated for r in systems),
        "kernel.collapses": sum(r.collapses for r in systems),
        "kernel.tlbs_flushed": sum(
            r.extra.get("tlbs_flushed", 0.0) for r in systems
        ),
        "kernel.memlock_wait_s": sum(
            r.extra.get("memlock_wait_ns", 0.0) for r in systems
        ) / 1e9,
        "policy.action_ratio": _ratio(acted, hot),
        "policy.no_page_ratio": _ratio(
            sum(r.tally.no_page for r in systems), hot
        ),
        "sim.stall_s": sum(r.stall.total_ns for r in dynamic) / 1e9,
        "sim.exec_s": sum(r.execution_time_ns for r in dynamic) / 1e9,
        "trace.events": sum(o.records for o in outcomes if o.results
                            and not hasattr(o.results[0], "stall")),
        "trace.tlb_misses": 0,  # filled from the trace.tlbsim boundary
        "ptpol.pt_replications": sum(
            r.extra.get("pt_replications", 0.0) for r in cells
        ),
        "ptpol.thread_migrations": sum(
            r.extra.get("thread_migrations", 0.0) for r in cells
        ),
        "store.bytes_written": extra.get("store.bytes_written", 0),
        "store.compression_ratio": _ratio(
            extra.get("store.raw_bytes", 0),
            extra.get("store.bytes_written", 0),
        ),
        "store.hits": extra.get("store.hits", 0),
        "store.misses": extra.get("store.misses", 0),
        "obs.events_written": extra.get("obs.events_written", 0),
        "obs.log_bytes": extra.get("obs.log_bytes", 0),
        "obs.reconcile_errors": extra.get("obs.reconcile_errors", 0),
    }


def paper_error_pp(outcomes: List[Outcome]) -> Optional[float]:
    """Mean |simulated - paper| over Fig. 3's eight percentages (pp).

    ``None`` unless the outcomes hold an FT and a Mig/Rep full-system
    result for every user workload.
    """
    legs: Dict[tuple, Any] = {}
    for outcome in outcomes:
        for result in outcome.results:
            if hasattr(result, "stall"):
                legs[(result.workload, result.policy)] = result
    errors = []
    for name, (stall_ref, exec_ref) in PAPER_FIG3.items():
        ft, mr = legs.get((name, "FT")), legs.get((name, "Mig/Rep"))
        if ft is None or mr is None:
            return None
        errors.append(abs(mr.stall_reduction_over(ft) - stall_ref))
        errors.append(abs(mr.improvement_over(ft) - exec_ref))
    return statistics.fmean(errors)
