"""Workloads smoke test — wired into tier-1 via pyproject testpaths.

Exercises the scenario CLI end to end on four preset specs (open-loop
RPC, closed-loop RPC, MPI allreduce, and a 4-shard RPC service): each run
emits a JSON report with the full latency/throughput/drop schema —
per-shard sections and the imbalance ratio for the sharded preset —
reruns are byte-identical, and attaching the observer changes nothing.
Fast by construction, so it runs with the regular test suite rather than
the benchmark tier.
"""

from __future__ import annotations

import json

import pytest

from repro.workloads.run import main

pytestmark = pytest.mark.fast

SMOKE_PRESETS = ("rpc-open", "rpc-closed", "mpi-allreduce", "rpc-sharded")


def run_cli(args, capsys):
    assert main(args) == 0
    return capsys.readouterr().out


class TestWorkloadsSmoke:
    @pytest.mark.parametrize("preset", SMOKE_PRESETS)
    def test_cli_emits_a_complete_report(self, preset, capsys):
        report = json.loads(run_cli([preset], capsys))
        results = report["results"]
        for key in ("p50_ns", "p95_ns", "p99_ns"):
            assert isinstance(results["latency"][key], int)
        assert results["throughput_rps"] > 0
        assert set(results["drops"]) == {"shed", "expired", "abandoned",
                                         "total"}
        assert results["completed"] > 0
        assert report["scenario"]["name"] == preset

    def test_rerun_is_byte_identical(self, capsys):
        first = run_cli(["rpc-open"], capsys)
        second = run_cli(["rpc-open"], capsys)
        assert first == second

    def test_observer_does_not_perturb_the_report(self, capsys):
        plain = run_cli(["rpc-closed"], capsys)
        observed = run_cli(["rpc-closed", "--observe"], capsys)
        assert plain == observed

    def test_spec_file_round_trip(self, tmp_path, capsys):
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps({
            "name": "custom", "kind": "rpc", "n_nodes": 2,
            "arrival": "closed", "n_requests": 10,
        }))
        out = tmp_path / "report.json"
        run_cli(["--spec", str(spec), "-o", str(out)], capsys)
        report = json.loads(out.read_text())
        assert report["scenario"]["name"] == "custom"
        assert report["results"]["completed"] == 10

    def test_sharded_preset_reports_per_shard_sections(self, capsys):
        report = json.loads(run_cli(["rpc-sharded"], capsys))
        results = report["results"]
        shards = results["shards"]
        assert len(shards) == report["scenario"]["servers"] == 4
        assert sum(s["completed"] for s in shards) == results["completed"]
        assert results["imbalance"] >= 1.0
        # Every shard carries the full flat schema, not a summary.
        for shard in shards:
            assert set(shard["drops"]) == {"shed", "expired", "abandoned",
                                           "total"}
            assert "p99_ns" in shard["latency"]
        # Byte-identical rerun: the sharded path keeps the contract.
        assert run_cli(["rpc-sharded"], capsys) == run_cli(
            ["rpc-sharded"], capsys)

    def test_list_and_bad_preset(self, capsys):
        listing = run_cli(["--list-presets"], capsys)
        for preset in SMOKE_PRESETS:
            assert preset in listing
        with pytest.raises(SystemExit):
            main(["no-such-preset"])
