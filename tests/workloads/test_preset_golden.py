"""Golden preset reports: every preset's canonical JSON report is pinned.

``preset_sha256.json`` maps each preset to the sha256 of its canonical
report (``dumps_deterministic``, exactly what ``python -m
repro.workloads.run PRESET`` prints).  Re-running the presets in-process
and comparing hashes turns "the reports stayed byte-identical" into a
test: any kernel, hardware or protocol change that moves one simulated
nanosecond, one event-order tie or one counter fails here, naming the
preset.  A change that is *meant* to move a report regenerates the file
and says why::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.workloads.test_preset_golden

``rpc-aggregate-100k`` is left out (minutes of wall time; CI runs it on
its own), and ``rpc-partitioned`` runs serially: its partitioned report
is byte-identical to the serial one, which CI checks with ``cmp``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.obs.export import dumps_deterministic
from repro.workloads.runner import PRESET_PLANS, PRESETS, execute_scenario

GOLDEN = Path(__file__).with_name("preset_sha256.json")
SKIPPED = ("rpc-aggregate-100k",)
GOLDEN_PRESETS = sorted(name for name in PRESETS if name not in SKIPPED)


def preset_sha256(name: str) -> str:
    """sha256 of the preset's canonical report, run as the CLI runs it."""
    scenario = replace(PRESETS[name], partitions=0)
    outcome = execute_scenario(scenario, plan=PRESET_PLANS.get(name))
    text = dumps_deterministic(outcome.report)
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_exactly_the_presets():
    assert sorted(load_golden()) == GOLDEN_PRESETS


@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_preset_report_is_byte_identical(name):
    assert preset_sha256(name) == load_golden()[name], (
        f"{name}'s report changed; if intended, regenerate "
        f"{GOLDEN.name} and justify the diff")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: preset_sha256(name) for name in GOLDEN_PRESETS},
        indent=2, sort_keys=True) + "\n")
    print(GOLDEN)
