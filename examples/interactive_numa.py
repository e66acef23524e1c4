#!/usr/bin/env python
"""Scenario: drive the NUMA kernel interactively, one miss at a time.

:class:`repro.NumaSystem` is the library-style entry point: you feed it
secondary-cache misses from any source and it runs the whole stack — page
faults, directory counters, pager interrupts, replica collapse — and tells
you what each miss cost.  This script walks a tiny three-act story:

  act 1: a process builds its working set on CPU 0 (everything local);
  act 2: the scheduler moves it to CPU 6 (everything remote...) and the
         policy migrates the hot pages back under it;
  act 3: a second process starts sharing one page read-only (it gets a
         replica), then writes to it (the replicas collapse).

Run:  python examples/interactive_numa.py
"""

from repro import NumaSystem, SimulatorOptions
from repro.policy.parameters import PolicyParameters

MS = 1_000_000


def main() -> None:
    system = NumaSystem(
        params=PolicyParameters(
            trigger_threshold=64, sharing_threshold=16, batch_pages=2
        ),
        options=SimulatorOptions(pager_delay_ns=1 * MS),
    )
    clock = 0

    print("act 1: process 1 builds a 4-page working set on CPU 0")
    for step in range(20):
        for page in range(4):
            out = system.miss(clock, cpu=0, process=1, page=page, weight=4)
            clock += 50_000
    print(f"  all local?  {system.local_fraction:.0%} of misses local\n")

    # Let a counter reset interval pass: act 1's counts age out, so the
    # pages will look (correctly) unshared when they re-heat on CPU 6.
    clock += 150 * MS

    print("act 2: the scheduler moves process 1 to CPU 6")
    remote_before = system.memory.remote_misses
    for step in range(60):
        for page in range(4):
            out = system.miss(clock, cpu=6, process=1, page=page, weight=4)
            clock += 50_000
    system.flush_pager()
    print(f"  remote misses suffered during the move: "
          f"{system.memory.remote_misses - remote_before}")
    print(f"  pager actions: {system.tally.migrated} migrations")
    for page in range(4):
        print(f"    page {page} now lives on node "
              f"{system.location_of(1, page)} (CPU 6's node is 6)")
    print()

    # Act 2's no-action decisions latch page 0 until the next counter
    # reset; let one pass so page 0 can trigger again.
    clock += 150 * MS

    print("act 3: process 2 (CPU 3) starts reading page 0 heavily")
    for step in range(60):
        system.miss(clock, cpu=6, process=1, page=0, weight=4)
        clock += 25_000
        system.miss(clock, cpu=3, process=2, page=0, weight=4)
        clock += 25_000
    system.flush_pager()
    print(f"  copies of page 0 now on nodes {system.copies_of(0)} "
          f"({system.tally.replicated} replication[s])")

    clock += 1 * MS
    out = system.miss(clock, cpu=6, process=1, page=0, write=True)
    print(f"  process 1 writes page 0 -> collapsed={out.collapsed}; "
          f"copies now on nodes {system.copies_of(0)}")
    print(f"\nkernel overhead spent on all of this: "
          f"{system.kernel_overhead_ns / 1e6:.2f} ms")
    system.vm.check_invariants()
    print("VM invariants hold.")


if __name__ == "__main__":
    main()
