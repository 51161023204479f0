"""Set-up probe: run a workload in a fresh process up to its first event.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints
``first-event <time.monotonic()>`` when the run reaches its first simulated
event, then stops the run.  The parent subtracts the monotonic time at
which it started this process, so the figure covers interpreter start,
imports, building the cluster and fabric, and building the workload.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class FirstEventReached(BaseException):
    """Unwinds the run at its first simulated event."""


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(SRC))
    from repro.simkernel.env import Environment
    from repro.workloads.runner import execute_scenario
    from workloads import scenario

    def first_event(_env, until=None):
        os.write(1, f"first-event {time.monotonic()!r}\n".encode())
        raise FirstEventReached

    Environment.run = first_event
    try:
        execute_scenario(scenario(name, seed))
    except FirstEventReached:
        return 0
    raise RuntimeError(f"{name}: the run finished without an event")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
