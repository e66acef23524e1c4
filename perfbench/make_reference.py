"""Regenerate ``reference.json``: every op's digest for seeds 0 and 1.

Run from the repository root after a change that is meant to alter
results (never to make a failing benchmark pass)::

    python3 perfbench/make_reference.py

Each workload runs one pass per seed in a fresh worker process; the
file also keeps Fig. 3's ``paper_err_pp`` for seed 0 (the seed the
model's parameters were set on) and seed 1 (held out).
"""

import argparse
import json
import sys
from pathlib import Path

import run

SEEDS = (0, 1)


def main() -> int:
    root = Path.cwd()
    workdir = root / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {"digests": {}, "paper_err_pp": {}}
    for seed in SEEDS:
        for workload in run.WORKLOADS:
            args = argparse.Namespace(workload=workload, seed=seed)
            steps = run.Steps(args, root, workdir)
            steps.run("prepare")
            measured = steps.run("measure", "--seconds", "1")
            errors = [r for r in measured["runs"] if r["error"]]
            if errors:
                print(f"error: {workload} seed {seed}: {errors[0]}",
                      file=sys.stderr)
                return 1
            digests = run.first_digests(measured["runs"])
            out["digests"].setdefault(str(seed), {})[workload] = digests
            if measured["paper_err_pp"] is not None:
                out["paper_err_pp"][str(seed)] = measured["paper_err_pp"]
            print(f"{workload} seed {seed}: {len(digests)} ops")
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
