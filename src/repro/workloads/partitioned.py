"""Partitioned parallel execution of rpc scenarios: one process per partition.

The serial runner puts the whole cluster in one event loop;
:func:`run_partitioned` splits a grouped scenario
(``partition_groups > 0``) across ``scenario.partitions`` OS worker
processes, each simulating its switch groups' share of the cluster in its
own :class:`~repro.simkernel.env.Environment`.  Workers advance in
lockstep windows of the plan's lookahead (the minimum cross-partition
trunk propagation delay) and exchange boundary packets at window barriers
over pipes — the classic conservative-lookahead discipline, with the
trunk latency the paper's fabric already has playing the role of safe
lookahead.

The contract is *partition-count invariance*: the report returned here is
byte-identical to the serial runner's for the same scenario (pinned by
``tests/workloads/test_partition_invariance.py``).  The pieces that make
that true:

* every worker derives the same :class:`~repro.parallel.partition.PartitionPlan`
  and full-topology routes from the scenario — no coordination;
* placement, client naming, and arrival/key streams are pure functions of
  the scenario (``client<node_id>``), so a client's traffic does not
  depend on which worker simulates it;
* boundary packets carry their far-side arrival time (assigned at
  serialisation end, exactly when a serial link would assign it) and are
  injected in globally sorted ``(arrival_ns, edge_id)`` order;
* the run stops at the first barrier where every worker's clients have
  finished — the same instant ``Cluster.run`` stops serially — and
  ``sim_end_ns`` is the max of the workers' local done times.

What does *not* cross a cut is retroactive backpressure: a full input
buffer on the far side cannot stall the sender's past.  Workers count
those events (``boundary_stalls``) and the runner warns when any
occurred, so a scenario pushed past that fidelity line is loud rather
than silently divergent.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import traceback
from dataclasses import asdict

from repro.workloads.stats import WorkloadStats


def _build_plan(scenario):
    """The partition plan every process derives identically."""
    from repro.parallel.partition import PartitionPlan
    from repro.workloads.runner import MACHINES, scenario_topology

    machine = MACHINES[scenario.machine]
    topology, trunk = scenario_topology(scenario, machine)
    return PartitionPlan(topology, scenario.partitions, machine.link, trunk)


def _worker_main(conn, scenario_dict: dict, partition: int) -> None:
    """One partition worker: build local state, run the window loop.

    Runs in a child process (module-level so the spawn start method can
    import it).  All state is rebuilt from the scenario dict — nothing
    is shared with the parent but the pipe.
    """
    from repro.parallel.sync import WorkerSync

    sync = WorkerSync(conn, partition)
    try:
        _worker_run(sync, scenario_dict, partition)
    except BaseException:
        sync.error(traceback.format_exc())
    finally:
        conn.close()


def _worker_run(sync, scenario_dict: dict, partition: int) -> None:
    from repro.cluster.partition import PartitionCluster
    from repro.workloads.runner import MACHINES, Scenario, deploy_rpc

    scenario = Scenario.from_dict(scenario_dict)
    plan = _build_plan(scenario)
    cluster = PartitionCluster(plan, partition, MACHINES[scenario.machine],
                               fm_version=scenario.fm_version)
    env, fabric = cluster.env, cluster.fabric

    stats = WorkloadStats(env, name=f"workload.{scenario.name}",
                          n_shards=scenario.n_shards)
    clients = deploy_rpc(scenario, cluster.nodes.values(), stats)
    programs = [cluster.spawn((lambda node, client=client: client.run()),
                              node_id)
                for node_id, client in clients.items()]

    # Record the local instant the last owned client finishes — the
    # partitioned analogue of where ``env.run(until=done)`` would stop.
    done_marks: list[int] = []
    done_event = env.all_of(programs) if programs else None
    if done_event is not None:
        def _watch():
            yield done_event
            done_marks.append(env.now)
        env.process(_watch(), name="done-watch")

    def local_done() -> bool:
        return done_event is None or done_event.triggered

    def t_done() -> int:
        return done_marks[0] if done_marks else 0

    if not plan.cut_edges:
        # Degenerate single-partition run: no peers to synchronise with,
        # so run straight to done (serial semantics), then one barrier
        # round to hand the coordinator its stop consensus.
        if done_event is not None:
            env.run(until=done_event)
        _inbound, stop = sync.exchange(0, [], True, t_done())
        assert stop, "single-partition worker expected stop at first barrier"
    else:
        window = 0
        while True:
            end = (window + 1) * plan.lookahead_ns
            env.run_window(end)
            outbox = fabric.drain_outbox(end)
            inbound, stop = sync.exchange(window, outbox, local_done(),
                                          t_done())
            if stop:
                break
            fabric.inject(inbound)
            window += 1

    sync.finish({
        "snapshot": stats.snapshot(),
        "t_done": t_done(),
        "events": env.scheduled_events,
        "boundary_stalls": fabric.boundary_stalls,
    })


def run_partitioned(scenario, details: dict | None = None) -> dict:
    """Run a ``partitions > 0`` scenario across worker processes.

    Returns the same report dict :func:`repro.workloads.runner.run_scenario`
    produces serially (byte-identical for the same scenario).  Pass a
    ``details`` dict to additionally receive execution-side numbers that
    deliberately stay out of the report (total scheduled events across
    workers, barrier windows, boundary messages/stalls) — the self-perf
    harness's events/sec numerator.
    """
    from repro.parallel.sync import Coordinator
    from repro.workloads.runner import scenario_report

    plan = _build_plan(scenario)
    scenario_dict = asdict(scenario)
    # fork skips re-importing the stack per worker; fall back to spawn on
    # platforms without it.
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    conns, procs = [], []
    try:
        for p in range(scenario.partitions):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main,
                               args=(child_conn, scenario_dict, p),
                               name=f"partition-{p}")
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        coordinator = Coordinator(conns, plan)
        payloads = coordinator.run()
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - cleanup path
                proc.terminate()
                proc.join()

    stats = WorkloadStats.merged([p["snapshot"] for p in payloads],
                                 name=f"workload.{scenario.name}",
                                 n_shards=scenario.n_shards)
    stalls = sum(p["boundary_stalls"] for p in payloads)
    if details is not None:
        details["events"] = sum(p["events"] for p in payloads)
        details["windows"] = coordinator.windows
        details["boundary_messages"] = coordinator.messages
        details["boundary_stalls"] = stalls
    if stalls:  # pragma: no cover - fidelity warning path
        sys.stderr.write(
            f"warning: {stalls} boundary packets found a full input buffer "
            "(backpressure cannot cross partitions retroactively); results "
            "may differ from a serial run of this scenario\n")
    return scenario_report(scenario, stats.report(),
                           max(p["t_done"] for p in payloads))
