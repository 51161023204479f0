"""Cold start: what a fresh interpreter loads, and when.

Routing is pure Python, so ``import repro`` must not pull in networkx.
numpy is loaded only by code that draws random numbers or reduces arrays:
the halo stencil does neither and never loads it, while the scenarios
that draw (rpc, dataflow) load it while they are built, so the import
never lands inside the simulated run.  Each check runs in a subprocess,
because the test session itself has long since imported both libraries.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Runs preset ``argv[1]``; with ``argv[2] == "first-event"`` it stops at the
#: first ``Environment.run`` call.  Prints whether numpy was loaded by then.
PROBE = """
import sys

from repro.simkernel.env import Environment
from repro.workloads.runner import PRESETS, execute_scenario


class FirstEvent(BaseException):
    pass


def first_event(env, until=None):
    raise FirstEvent


if sys.argv[2] == "first-event":
    Environment.run = first_event
try:
    execute_scenario(PRESETS[sys.argv[1]])
except FirstEvent:
    pass
print("numpy" in sys.modules)
"""


def fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run by a new interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_repro_never_loads_networkx():
    assert fresh("import sys, repro; print('networkx' in sys.modules)") \
        == "False"


def test_halo_preset_never_loads_numpy():
    assert fresh(PROBE, "mpi-halo", "to-the-end") == "False"


@pytest.mark.parametrize("preset", ["rpc-sharded", "dataflow-scatter-gather"])
def test_drawing_presets_load_numpy_before_the_first_event(preset):
    assert fresh(PROBE, preset, "first-event") == "True"
