"""Per-layer host time, measured by wrapping each layer's public calls.

The program carries no benchmark spans of its own: :func:`install`
replaces each boundary function in :data:`BOUNDARIES` with a timing
wrapper, on its class or in every ``repro`` module that imported it by
name (``derive_tlb_trace`` is looked up in ``repro.ptpol.sim`` and
``repro.trace.policysim``, not in ``repro.trace.tlbsim``).

A span is one call: its name, start, end and the span that was open
when it started.  The layers make millions of calls per run (one
``machine.service_miss`` per simulated miss), so spans are folded into
per-name totals as they close — calls, total time, time inside child
spans — and per-(parent, child) call counts, which keeps memory
independent of run length.  A name's self time is its total minus its
children's, minus the measured cost of the wrappers themselves
(:meth:`SpanRecorder.calibrate`).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

#: (span name, defining module, attribute) for every wrapped boundary.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.generate", "repro.workloads.base", "generate_trace"),
    ("store.put", "repro.store.tracestore", "TraceStore.put"),
    ("store.get", "repro.store.tracestore", "TraceStore.get"),
    ("exp.sweep", "repro.exp.runner", "SweepRunner.run"),
    ("exp.execute", "repro.exp.runner", "execute_spec"),
    ("sim.run", "repro.sim.simulator", "SystemSimulator.run"),
    ("machine.service_miss", "repro.machine.memory",
     "NumaMemorySystem.service_miss"),
    ("machine.contention", "repro.machine.contention",
     "UtilisationWindow.offer"),
    ("machine.interconnect", "repro.machine.interconnect",
     "Interconnect.traverse"),
    ("machine.directory", "repro.machine.directory", "DirectoryArray.observe"),
    ("kernel.fault", "repro.kernel.vm.system", "VmSystem.fault"),
    ("kernel.pager", "repro.kernel.pager.handler", "PagerHandler.handle_batch"),
    ("kernel.collapse", "repro.kernel.pager.collapse",
     "CollapseHandler.handle_write_fault"),
    ("trace.static", "repro.trace.policysim",
     "TracePolicySimulator.simulate_static"),
    ("trace.dynamic", "repro.trace.policysim",
     "TracePolicySimulator.simulate_dynamic"),
    ("trace.tlbsim", "repro.trace.tlbsim", "derive_tlb_trace"),
    ("trace.split", "repro.trace.record", "Trace.user_only"),
    ("trace.split", "repro.trace.record", "Trace.kernel_only"),
    ("ptpol.simulate", "repro.ptpol.sim", "PtPolicySimulator.simulate"),
    ("obs.emit", "repro.obs.export", "JsonlSink.emit"),
    ("obs.read", "repro.obs.export", "iter_events"),
    ("obs.attrib", "repro.obs.attrib", "Attribution.feed"),
    ("obs.reconcile", "repro.obs.attrib", "Attribution.reconcile"),
)

#: Span names, in report order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))

#: Boundaries whose returned length is an exact count worth reporting.
RETURN_COUNTS = {"trace.tlbsim": "trace.tlb_misses"}


class SpanRecorder:
    """Folds nested boundary spans into per-name totals."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        # Open spans: [name, child_ns, child_calls].
        self._stack: List[list] = []
        # name -> [calls, total_ns, child_ns, child_calls]
        self.stats: Dict[str, List[int]] = {}
        self.edges: Dict[Tuple[str, str], int] = {}
        self.returned: Dict[str, int] = {}
        self.in_span_ns = 0.0
        self.outer_ns = 0.0

    def _close(self, frame: list, start: int) -> None:
        dur = self.clock() - start
        stack = self._stack
        stack.pop()
        name = frame[0]
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += dur
        stat[2] += frame[1]
        stat[3] += frame[2]
        if stack:
            parent = stack[-1]
            parent[1] += dur
            parent[2] += 1
            key = (parent[0], name)
        else:
            key = ("", name)
        self.edges[key] = self.edges.get(key, 0) + 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as one ``name`` span.

        A generator function's span is each resumption, so time the
        consumer spends between items is not charged to it.
        """
        self.stats.setdefault(name, [0, 0, 0, 0])
        stack, clock, close = self._stack, self.clock, self._close
        counted = RETURN_COUNTS.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def timed_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [name, 0, 0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(frame, start)
                    yield item

            return timed_gen

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [name, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                close(frame, start)
            if counted is not None:
                self.returned[counted] = (
                    self.returned.get(counted, 0) + len(value)
                )
            return value

        return timed

    def calibrate(self, rounds: int = 5, calls: int = 20000) -> None:
        """Measure what an empty span costs, inside and around its interval.

        ``in_span_ns`` is the duration an empty span records (charged
        back from each span's own time); ``outer_ns`` is the rest of the
        wrapper's cost, which lands in the caller's span (charged back
        per child call).  Each is the minimum over ``rounds``.
        """

        def empty():
            return None

        wrapped = self.wrap("_empty", empty)
        in_span, outer = [], []
        # Real spans close inside a parent span; so do the empty ones.
        self._stack.append(["_parent", 0, 0])
        for _ in range(rounds):
            self.stats["_empty"] = [0, 0, 0, 0]
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                empty()
            plain = time.perf_counter_ns() - t0
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                wrapped()
            full = (time.perf_counter_ns() - t0 - plain) / calls
            inside = self.stats["_empty"][1] / calls
            in_span.append(inside)
            outer.append(max(0.0, full - inside))
        self._stack.pop()
        del self.stats["_empty"]
        self.edges.pop(("_parent", "_empty"), None)
        self.in_span_ns = min(in_span)
        self.outer_ns = min(outer)

    def self_seconds(self, name: str) -> float:
        """Self time of ``name``: total minus children minus span cost."""
        calls, total, child, child_calls = self.stats.get(name, (0, 0, 0, 0))
        own = (
            total - child - calls * self.in_span_ns
            - child_calls * self.outer_ns
        )
        return max(0.0, own) / 1e9

    def to_dict(self) -> Dict:
        """Everything recorded, for the span summary file."""
        return {
            "in_span_ns": self.in_span_ns,
            "outer_ns": self.outer_ns,
            "spans": {
                name: {
                    "calls": s[0], "total_s": s[1] / 1e9,
                    "child_s": s[2] / 1e9, "self_s": self.self_seconds(name),
                }
                for name, s in self.stats.items()
            },
            "edges": [
                {"parent": p or None, "child": c, "calls": n}
                for (p, c), n in sorted(self.edges.items())
            ],
            "returned": dict(self.returned),
        }


def install(recorder: SpanRecorder) -> None:
    """Wrap every boundary, everywhere it is looked up."""
    import importlib

    for name, module_name, attr in BOUNDARIES:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, recorder.wrap(name, cls.__dict__[meth]))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
