"""A fixed calibration kernel that measures how fast the host is right now.

The benchmark shares a host whose speed drifts with other tenants' load,
often by more than its bounds and more slowly than a run, so every op of
a run sees the same slow or fast host.  The worker therefore times this
kernel next to the ops (and right after set-up) and the run reports
each time scaled to a host on which the kernel takes :data:`REF_S`::

    normalized_s = host_s * REF_S / kernel_s

The kernel does a fixed amount of work of the kinds the workloads do:
interpreted loops over small objects and dicts, NumPy streams, gathers
and sorts over arrays larger than the caches, zlib and JSON.  It calls
no code of the program, so a change to the program moves the normalized
times and never the kernel.

The kernel runs in a separate process (``python3 calib.py``) that the
worker starts once and drives in lockstep through a pipe: the worker
waits while the kernel runs, so the two never compete for a core, and
the kernel's arrays stay out of the worker's peak RSS.  Both processes
are pinned to the core the worker was running on, because each core of
a shared host has its own neighbours and so its own speed.  The process
exits when its standard input closes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

#: The kernel's time, in seconds, on the reference host.  Normalized
#: times read as host seconds on a host this fast.
REF_S = 0.030


class _Kernel:
    """The kernel's inputs, built once, and the kernel itself."""

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        n = 1 << 21                                 # 16 MB per int64 array
        self.stream = (np.arange(n, dtype=np.int64) * 2654435761) % (1 << 30)
        self.out = np.empty_like(self.stream)
        self.perm = (np.arange(1 << 18, dtype=np.int64) * 2654435761) % n
        self.unsorted = self.stream[: 1 << 19].copy()
        self.blob = (self.stream[: 1 << 20] >> 7 & 15).astype(np.uint8).tobytes()
        self.doc = [
            {"t": i, "cpu": i % 8, "page": (i * 2654435761) % 4096}
            for i in range(1500)
        ]

    def interp(self) -> int:
        total = 0
        for i in range(30_000):
            total += (i * i) % 7 if i & 1 else i >> 3
        nodes = {}
        for i in range(20_000):
            page = (i * 40503) & 1023
            node = nodes.get(page)
            if node is None:
                node = nodes[page] = [0]
            node[0] += i & 3
        return total + sum(node[0] for node in nodes.values())

    def numpy(self) -> int:
        np = self.np
        np.add(self.stream, self.stream, out=self.out)
        total = int(self.out[::4096].sum() & 0xFFFF)
        total += int(self.stream[self.perm].sum() & 0xFFFF)
        return total + int(np.sort(self.unsorted)[1000])

    def zlib(self) -> int:
        import zlib

        return len(zlib.compress(self.blob, 6))

    def json(self) -> int:
        import json

        return len(json.loads(json.dumps(self.doc)))

    def run(self) -> int:
        """One fixed unit of mixed work; returns its checksum."""
        return self.interp() + self.numpy() + self.zlib() + self.json()


def serve() -> None:
    """Answer each line on stdin with one kernel's seconds, until EOF."""
    import gc
    import time

    kernel = _Kernel()
    checksum = kernel.run()
    gc.disable()
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        value = kernel.run()
        seconds = time.perf_counter() - t0
        if value != checksum:
            raise SystemExit("calibration kernel checksum changed")
        print(repr(seconds), flush=True)


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    stat = Path("/proc/self/stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[36])


class Calibrator:
    """Drives a kernel process; use it as a context manager."""

    def __enter__(self) -> "Calibrator":
        # The kernel process inherits the pin.
        os.sched_setaffinity(0, {current_cpu()})
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("calibration process did not start")
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def measure(self, reps: int = 3) -> float:
        """Median seconds of ``reps`` kernel runs."""
        samples = []
        for _ in range(reps):
            self.proc.stdin.write("run\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("calibration process exited")
            samples.append(float(line))
        return statistics.median(samples)


if __name__ == "__main__":
    serve()
