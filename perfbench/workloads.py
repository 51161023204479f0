"""The benchmark's workloads: seed -> Scenario, output checks, metrics.

Each workload is a :class:`~repro.workloads.runner.Scenario` derived from a
built-in preset plus the benchmark seed.  The program under test receives
only that scenario (through ``execute_scenario``); everything else here
reads its report and the cluster's public counters after the run.

Why these three (each stresses a different layer):

* ``rpc-fanout`` — single-packet request/response messages: the cost sits
  in ``workloads``, the FM 2.x small-message path and the NIC idle-wait.
  Its traced pass also runs the same traffic over two switch groups,
  serially and on two worker processes (the ``parallel`` layer).
* ``mpi-halo-bulk`` — 64 KiB halos, far above the 16 KiB eager threshold:
  rendezvous, multi-packet FM streams, DMA and copies do the work, and the
  idle-wait is rare (the workload that bypasses that mechanism).
* ``dataflow-backpressure`` — one-way FM streams paced by the credit
  ledger instead of request/response traffic.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.workloads.runner import PRESETS, Scenario

#: Seed kept out of tuning: a later performance claim is re-checked on it.
HELD_OUT_SEED = 90_210

WORKLOADS = ("rpc-fanout", "mpi-halo-bulk", "dataflow-backpressure")

#: Worker processes (and switch groups) of the partitioned run.
PARALLEL_WORKERS = 2


def scenario(name: str, seed: int) -> Scenario:
    """The scenario one benchmark run simulates (a pure function of both)."""
    if name == "rpc-fanout":
        # 6 Poisson clients x 29k rps = 174k rps offered, ~60% of the ~290k
        # rps the saturated rpc-sharded preset delivers: latency measures
        # service plus queueing, not an ever-growing backlog.
        return replace(PRESETS["rpc-sharded"], name=name, seed=seed,
                       rate_rps=29_000.0, req_bytes=64, resp_bytes=64,
                       n_requests=400)
    if name == "mpi-halo-bulk":
        # The stencil has no random draws; the seed jitters compute time
        # per iteration so that every seed is a distinct input.
        jitter = random.Random(seed).randrange(1_000)
        return replace(PRESETS["mpi-halo"], name=name, seed=seed,
                       halo_bytes=64 * 1024, iterations=16,
                       compute_ns=5_000 + jitter)
    if name == "dataflow-backpressure":
        # 2 x 250k rps offered against a sink that drains ~300k rps: credit
        # stalls hold the pipeline in steady backpressure.  At 150k rps per
        # source the sink sits at its capacity, latency drifts like a random
        # walk, and its median moved by +-50% from seed to seed.
        return replace(PRESETS["dataflow-scatter-gather"], name=name,
                       seed=seed, rate_rps=250_000.0, n_requests=1_000)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def grouped_twin(sc: Scenario) -> Scenario | None:
    """The same traffic over ``PARALLEL_WORKERS`` switch groups, with the
    shards striped over them, for the partitioned run; ``None`` for kinds
    that cannot run partitioned."""
    if sc.kind != "rpc":
        return None
    return replace(sc, partition_groups=PARALLEL_WORKERS)


def planned_ops(sc: Scenario) -> int:
    """Operations the scenario attempts: RPC requests, halo iterations or
    dataflow source records."""
    if sc.kind == "rpc":
        return (sc.n_nodes - sc.servers) * sc.n_requests
    if sc.kind == "halo":
        return sc.iterations
    if sc.kind == "pipeline":
        return sc.n_sources * sc.n_requests
    raise ValueError(f"no operation count for kind {sc.kind!r}")


def completed_ops(sc: Scenario, results: dict) -> int:
    """Operations that finished without failure, from the report."""
    if sc.kind == "pipeline":
        return results["records"]["delivered_source_records"]
    return results["completed"]


def transport_errors(cluster) -> int:
    """Link drops and corruption, corrupt control packets and unmatched or
    corrupt RDMA packets, summed over the whole fabric."""
    errors = sum(link.dropped + link.corrupted
                 for link in cluster.fabric.links.values())
    for node in cluster.nodes:
        nic = node.nic
        errors += (nic.corrupt_control_packets + nic.rdma_unmatched
                   + nic.corrupt_offload_packets)
    return errors


def check(sc: Scenario, results: dict, errors: int) -> tuple[int, int, list]:
    """``(attempted, failed, problems)`` for one run.

    ``failed`` counts every operation that did not complete (drops, sheds,
    expiries, abandons, undelivered records, unfinished iterations) plus
    every transport error.  ``problems`` lists broken invariants.
    """
    attempted = planned_ops(sc)
    problems = []
    if sc.kind == "rpc":
        drops = results["drops"]["total"]
        if results["completed"] + drops != results["sent"]:
            problems.append(
                f"rpc: completed {results['completed']} + drops {drops} "
                f"!= sent {results['sent']}")
    elif sc.kind == "pipeline":
        if not results["conservation"]["ok"]:
            problems.append(f"dataflow: conservation broken: "
                            f"{results['conservation']}")
        if results["records"]["dropped"]:
            problems.append(f"dataflow: {results['records']['dropped']} "
                            "records dropped")
    elif sc.kind == "halo" and results["completed"] != attempted:
        problems.append(f"halo: {results['completed']} of {attempted} "
                        "iterations completed")
    if errors:
        problems.append(f"{errors} transport errors")
    failed = max(0, attempted - completed_ops(sc, results)) + errors
    return attempted, failed, problems


def sim_metrics(sc: Scenario, results: dict) -> dict[str, float]:
    """The simulated end-to-end metrics (pure functions of the report)."""
    latency = results["latency"]
    if sc.kind == "pipeline":
        delivered = results["records"]["delivered_source_records"]
        goodput = delivered * sc.req_bytes / results["elapsed_ns"] * 1e3
    else:
        goodput = results["goodput_mbs"]
    return {
        "sim_p50_us": latency["p50_ns"] / 1e3,
        "sim_p99_us": latency["p99_ns"] / 1e3,
        "sim_goodput_mbs": goodput,
    }
