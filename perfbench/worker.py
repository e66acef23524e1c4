"""One benchmark process: prepare the warm store, time set-up, or measure.

``run.py`` starts this script in a fresh interpreter for every step, so
imports are paid again and ``peak_rss_mb`` belongs to one run::

    worker.py prepare --workload W --seed S --workdir D
    worker.py setup   --workload W --seed S --workdir D --out F
    worker.py measure --workload W --seed S --workdir D --out F \
        --seconds N [--traced]

``measure`` runs the workload's ops in order, cycling, until the next op
would end past ``--seconds`` (always at least one whole pass), and
writes each op's host seconds, digest and error.  ``--traced`` wraps
every layer boundary (``spans.py``), runs exactly one pass, and adds the
span totals.

Set-up and every op also carry ``calib_s``, the time of the calibration
kernel (``calib.py``, in its own process) measured next to them: right
after set-up, and between ops whenever :data:`CALIB_EVERY_S` seconds of
ops have run since the last time.  An op's ``calib_s`` is the mean of
the last kernel time before it and the first after it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import ops  # noqa: E402
import spans  # noqa: E402


def _import_layers() -> None:
    """Import every layer the ops reach (part of set-up)."""
    import repro  # noqa: F401
    import repro.exp.runner  # noqa: F401
    import repro.obs.attrib  # noqa: F401
    import repro.obs.export  # noqa: F401
    import repro.ptpol.sim  # noqa: F401
    import repro.sim.simulator  # noqa: F401
    import repro.store  # noqa: F401
    import repro.trace.policysim  # noqa: F401
    import repro.workloads  # noqa: F401


def prepare(args) -> dict:
    """Record the traces a workload replays into the warm store.

    One-time work outside every timed run; ``record`` needs nothing
    recorded (it measures exactly this cost), so it only imports.
    """
    _import_layers()
    from repro.workloads import record_workload

    workload = ops.WORKLOADS[args.workload]
    for name in workload.replayed:
        record_workload(name, scale=workload.scale, seed=args.seed)
    return {}


def _set_up(args, recorder=None):
    """Imports, tokens, specs and trace decode; returns (workload, seconds)."""
    _import_layers()
    if recorder is not None:
        spans.install(recorder)
    workload = ops.WORKLOADS[args.workload]()
    workload.setup(args.seed, Path(args.workdir))
    return workload, time.perf_counter() - _T0


#: Longest stretch of ops between two kernel timings, in seconds.
CALIB_EVERY_S = 1.0


def setup(args) -> dict:
    setup_s = _set_up(args)[1]
    import calib

    with calib.Calibrator() as calibrator:
        return {"setup_s": setup_s, "calib_s": calibrator.measure()}


def _execute(op):
    """Run ``op`` on the clock, then check its output off the clock."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        value = op.run()
    except Exception as exc:  # an op that raises is a failed op
        seconds = time.perf_counter() - t0
        return seconds, ops.Outcome("", 0, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    try:
        return seconds, op.check(value)
    except Exception as exc:
        return seconds, ops.Outcome("", 0, error=f"check raised {exc!r}")


def measure(args) -> dict:
    recorder = spans.SpanRecorder() if args.traced else None
    workload, setup_s = _set_up(args, recorder)
    import calib

    with calib.Calibrator() as calibrator:
        return _measure(args, workload, setup_s, recorder, calibrator)


def _measure(args, workload, setup_s, recorder, calibrator) -> dict:
    from repro.obs import prof

    setup_calib_s = calibrator.measure()
    op_list = workload.ops()
    if recorder is not None:
        recorder.calibrate()

    runs = []                       # one entry per executed op
    first_pass = []                 # the first pass's Outcomes
    last_s = {}
    # Kernel times as (index of the next op, seconds); ops in between
    # take the mean of the kernel times around them.
    kernel_s = [(0, setup_calib_s)]
    since_calib = 0.0
    start = time.perf_counter()
    for i in itertools.count():
        op = op_list[i % len(op_list)]
        if i >= len(op_list) and (
            args.traced
            or time.perf_counter() - start + last_s[op.label] > args.seconds
        ):
            break
        if since_calib >= CALIB_EVERY_S:
            kernel_s.append((i, calibrator.measure()))
            since_calib = 0.0
        seconds, outcome = _execute(op)
        since_calib += seconds
        last_s[op.label] = seconds
        runs.append({
            "label": op.label, "seconds": seconds,
            "digest": outcome.digest, "error": outcome.error,
        })
        if i < len(op_list):
            first_pass.append(outcome)
        if i == len(op_list) - 1:
            # Later passes repeat the same work; only their heap
            # fragmentation would still move the peak.
            peak_mb = prof.peak_rss_bytes() / 2**20

    kernel_s.append((len(runs), calibrator.measure()))
    for (lo, before), (hi, after) in zip(kernel_s, kernel_s[1:]):
        for run in runs[lo:hi]:
            run["calib_s"] = (before + after) / 2

    from repro.store import default_store
    from repro.trace.policysim import PolicySimConfig

    counts = ops.layer_counts(first_pass)
    # Set-up decoded the warm store's traces through the default store.
    warm = default_store()
    if warm is not None:
        counts["store.hits"] += warm.hits
        counts["store.misses"] += warm.misses
    out = {
        "engine": PolicySimConfig(n_cpus=1, n_nodes=1).engine,
        "setup": {"setup_s": setup_s, "calib_s": setup_calib_s},
        "runs": runs,
        "pass_records": sum(o.records for o in first_pass),
        "counts": counts,
        "paper_err_pp": ops.paper_error_pp(first_pass),
        "peak_rss_mb": peak_mb,
    }
    if recorder is not None:
        counts.update(recorder.returned)
        out["spans"] = recorder.to_dict()
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "setup", "measure"))
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    result = {"prepare": prepare, "setup": setup, "measure": measure}[
        args.mode
    ](args)
    if args.out:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
