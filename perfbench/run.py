"""The repo benchmark: one command, four workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload fullsys --seed 0 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics of a separate span-wrapped pass, plus the
tracing overhead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  Every step runs
in a fresh ``worker.py`` process; state lives under
``.bench_build/perfbench`` (the warm trace store, logs, the
``BENCH_*.json`` artifacts).  Times are normalized to a reference host
speed with the calibration kernel of ``calib.py``; the host's own
seconds are printed beside them.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import REF_S
from ops import WORKLOADS
from spans import SPAN_NAMES

HERE = Path(__file__).resolve().parent

#: Set-up-only processes per run; with the measured process's own
#: set-up that gives three samples, reported as their median.
SETUP_SAMPLES = 2

#: Wall limit for all of a run's steps, inside the allowed 180 s.
RUN_TIMEOUT_S = 170

#: Workloads that run with tracing disabled: every ``obs.*`` per-layer
#: metric must read 0 on them, because disabled tracing costs nothing.
UNTRACED_WORKLOADS = ("fullsys", "replay", "record")


class BenchError(Exception):
    """A benchmark step could not run (as opposed to a failed op)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def worker_env(root: Path, workdir: Path) -> dict:
    """The isolated environment every worker process runs in."""
    env = dict(os.environ)
    for key in ("REPRO_TRACE_TOKEN", "REPRO_CODE_TOKEN", "PYTHONPATH"):
        env.pop(key, None)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(workdir / "pycache"),
        "REPRO_TRACE_STORE": "1",
        "REPRO_TRACE_DIR": str(workdir / "traces"),
        "REPRO_CACHE_DIR": str(workdir / "cache"),
        "REPRO_HISTORY_DIR": str(workdir / "history"),
        "REPRO_REPLAY_ENGINE": "vector",
        # One thread: the workloads run serially in one process.
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


class Steps:
    """Runs ``worker.py`` steps for one workload and seed."""

    def __init__(self, args, root: Path, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.env = worker_env(root, workdir)
        self.deadline = time.monotonic() + RUN_TIMEOUT_S

    def run(self, mode: str, *extra: str) -> dict:
        out = self.workdir / f"{mode}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), mode,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--workdir", str(self.workdir), "--out", str(out), *extra,
        ]
        # A session of its own, so a timeout stops the worker's
        # calibration process too.
        proc = subprocess.Popen(
            cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker {mode} timed out after {exc.timeout}s")
        if proc.returncode != 0:
            tail = (stderr or stdout).strip().splitlines()[-5:]
            raise BenchError(
                f"worker {mode} exited {proc.returncode}: " + " | ".join(tail)
            )
        try:
            return json.loads(out.read_text(encoding="utf-8") or "{}")
        finally:
            out.unlink(missing_ok=True)


def normalized(seconds: float, calib_s: float) -> float:
    """Host seconds scaled to a host on which the kernel takes ``REF_S``."""
    return seconds * REF_S / calib_s


def pass_seconds(runs, host=False) -> float:
    """One pass's seconds: the sum of each op's median time.

    Each op time is normalized by the kernel time measured next to it,
    or, with ``host``, left in the host's own seconds.
    """
    by_label = {}
    for run in runs:
        seconds = run["seconds"]
        if not host:
            seconds = normalized(seconds, run["calib_s"])
        by_label.setdefault(run["label"], []).append(seconds)
    return sum(statistics.median(v) for v in by_label.values())


def judge(runs, reference, label_digests=None):
    """Mark every failed op run; returns the failure messages.

    An op run fails when it raised or needed a retry, when its digest
    differs from the committed reference for this seed, or — for seeds
    without a reference — from the first digest of the same op in this
    run (or in ``label_digests``, the untraced run's first digests).
    """
    failures = []
    first = dict(label_digests or {})
    for run in runs:
        label, digest = run["label"], run["digest"]
        expected = reference.get(label, first.get(label))
        if run["error"]:
            failures.append(f"{label}: {run['error']}")
            continue
        first.setdefault(label, digest)
        if expected is not None and digest != expected:
            failures.append(f"{label}: digest {digest[:12]} != {expected[:12]}")
    return failures


def first_digests(runs) -> dict:
    out = {}
    for run in runs:
        out.setdefault(run["label"], run["digest"])
    return out


def write_artifact(root: Path, workdir: Path, name: str, metrics: dict,
                   context: dict) -> Path:
    """Write ``BENCH_<name>.json`` in the repo's bench-artifact schema."""
    sys.path.insert(0, str(root / "src"))
    from repro.obs.bench import BenchArtifact

    artifact = BenchArtifact(name=name, context=context)
    for key, (value, unit, better) in metrics.items():
        artifact.add(key, value, unit=unit, direction=better)
    return artifact.write(workdir / "results")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    bench = json.loads(spec_path.read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text("utf-8"))
    ref_ops = (
        reference["digests"].get(str(args.seed), {}).get(args.workload, {})
    )
    workdir = root / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    steps = Steps(args, root, workdir)
    try:
        return run_benchmark(args, root, workdir, steps, bench, ref_ops,
                             reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_benchmark(args, root, workdir, steps, bench, ref_ops, reference):
    steps.run("prepare")
    checked = "committed digests" if ref_ops else "self-consistency"
    if args.trace == 0:
        report = end_to_end(args, steps, ref_ops, reference)
        defs, name = bench["end_to_end"], f"perfbench.{args.workload}"
    else:
        report = per_layer(args, steps, ref_ops, workdir)
        defs, name = bench["per_layer"], f"perfbench.{args.workload}.layers"
    values, runs, failures = report["values"], report["runs"], report["failures"]

    names = [d["name"] for d in defs]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) ^ set(values))
        raise BenchError(f"metrics differ from BENCHMARK.json: {missing}")
    print(f"perfbench {args.workload}{' (traced)' if args.trace else ''}: "
          f"seed {args.seed}, replay engine {report['engine']}, {len(runs)} "
          f"ops checked against {checked}")
    for d in defs:
        print(f"  {d['name']:<36} {values[d['name']]:>16.6g} {d['unit']}")
    for line in report["lines"]:
        print("  " + line)
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    art_metrics = {
        d["name"]: (values[d["name"]], d["unit"], d["better"]) for d in defs
    }
    art_metrics.update(report["extra"])
    path = write_artifact(root, workdir, name, art_metrics, {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "replay_engine": report["engine"],
        "checked_against": checked, "attempted": len(runs),
        "failed": len(failures),
    })
    print(f"  wrote {path.relative_to(root)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {
            d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in defs
        },
    }))
    return 0


def end_to_end(args, steps, ref_ops, reference) -> dict:
    """Tracing off: set-up samples, then one measured process."""
    samples = [steps.run("setup") for _ in range(SETUP_SAMPLES)]
    measured = steps.run("measure", "--seconds", str(args.seconds))
    samples.append(measured["setup"])
    runs = measured["runs"]
    failures = judge(runs, ref_ops)
    wall_s = pass_seconds(runs)
    host_wall_s = pass_seconds(runs, host=True)
    host_setup_s = statistics.median(s["setup_s"] for s in samples)
    calib_ms = 1e3 * statistics.median(
        [s["calib_s"] for s in samples] + [r["calib_s"] for r in runs]
    )
    error_rate = len(failures) / len(runs)
    passes = len(runs) / len({r["label"] for r in runs})
    records = measured["pass_records"]
    lines = [
        f"(wall_s is one pass: each op's median over {passes:.2f} passes)",
        f"(times normalized to a {1e3 * REF_S:.0f} ms calibration kernel; "
        f"it took {calib_ms:.2f} ms here)",
        f"host_setup_s {host_setup_s:.6g} s, host_wall_s {host_wall_s:.6g} "
        f"s, host_records_per_s {records / host_wall_s:.6g} records/s",
        f"error_rate {error_rate:.4f} fraction ({len(failures)} of "
        f"{len(runs)} ops failed)",
    ]
    extra = {
        "error_rate": (error_rate, "fraction", "lower"),
        "host_setup_s": (host_setup_s, "s", "lower"),
        "host_wall_s": (host_wall_s, "s", "lower"),
        "host_records_per_s": (records / host_wall_s, "records/s", "higher"),
        "calib_ms": (calib_ms, "ms", "lower"),
    }
    err = measured["paper_err_pp"]
    if err is None:
        lines.append("paper_err_pp - (no reference results: unvalidated)")
    else:
        held = reference["paper_err_pp"]
        lines.append(
            f"paper_err_pp {err:.4f} pp (Fig. 3 vs the paper; committed: "
            f"seed 0 {held['0']:.4f}, held-out seed 1 {held['1']:.4f})"
        )
        extra["paper_err_pp"] = (err, "pp", "lower")
    return {
        "values": {
            "setup_s": statistics.median(
                normalized(s["setup_s"], s["calib_s"]) for s in samples
            ),
            "wall_s": wall_s,
            "records_per_s": records / wall_s,
            "peak_rss_mb": measured["peak_rss_mb"],
        },
        "runs": runs, "failures": failures, "lines": lines, "extra": extra,
        "engine": measured["engine"],
    }


def per_layer(args, steps, ref_ops, workdir) -> dict:
    """An untraced measured process, then one span-wrapped pass."""
    untraced = steps.run("measure", "--seconds", str(args.seconds))
    traced = steps.run("measure", "--seconds", str(args.seconds), "--traced")
    failures = judge(untraced["runs"], ref_ops)
    failures += [
        "traced " + f
        for f in judge(traced["runs"], ref_ops,
                       first_digests(untraced["runs"]))
    ]
    values = layer_values(untraced, traced)
    leaked = [f"{name}={value:g}" for name, value in values.items()
              if name.startswith("obs.") and value != 0]
    if args.workload in UNTRACED_WORKLOADS and leaked:
        failures.append("obs with tracing disabled: " + ", ".join(leaked))
    spans = traced["spans"]
    shares = layer_shares(spans["spans"])
    path = workdir / "results" / f"spans.{args.workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(spans, shares=shares), indent=1) + "\n")
    lines = [
        f"span cost subtracted: {spans['in_span_ns']:.0f} ns inside each "
        f"span, {spans['outer_ns']:.0f} ns around it",
        "layer shares of the spans' self time: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()
        ),
        "traced digests compared with the untraced run's",
    ]
    return {
        "values": values,
        "runs": untraced["runs"] + traced["runs"],
        "failures": failures, "lines": lines, "extra": {},
        "engine": traced["engine"],
    }


def layer_shares(spans: dict) -> dict:
    """Each layer's (the span name's first part) share of all self time."""
    total = sum(span["self_s"] for span in spans.values()) or 1.0
    shares = {}
    for name, span in spans.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + span["self_s"] / total
    return {k: v for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
            if v > 0}


def layer_values(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics: span calls and self time, counts, cell times."""
    spans = traced["spans"]["spans"]
    values = {}
    for name in SPAN_NAMES:
        span = spans.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = span["calls"]
        values[f"{name}.self_s"] = span["self_s"]
    values.update(traced["counts"])
    cells = [run["seconds"] for run in untraced["runs"]]
    deciles = statistics.quantiles(cells, n=10, method="inclusive")
    values["exp.cells"] = len(cells)
    values["exp.cell_s.p50"] = statistics.median(cells)
    values["exp.cell_s.p90"] = deciles[8]
    values["trace_overhead"] = (
        pass_seconds(traced["runs"]) / pass_seconds(untraced["runs"])
    )
    return values


if __name__ == "__main__":
    sys.exit(main())
