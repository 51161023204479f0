"""Scenario specs and the one-call runner: spec -> cluster -> run -> report.

A :class:`Scenario` is pure data (a frozen dataclass, JSON-round-trippable
via :meth:`Scenario.from_dict` / ``dataclasses.asdict``) naming everything
a run depends on: the cluster shape, the FM generation, the workload kind,
its arrival process, and the service parameters.  :func:`run_scenario`
builds the cluster, optionally composes a
:class:`~repro.faults.plan.FaultPlan` and/or an observer (both ride the
standard ``Cluster.inject_faults`` / ``Cluster.observe`` hooks — zero cost
when absent, bit-identical results when passive), runs the workload, and
returns a deterministic report dict.

Workload kinds:

* ``rpc`` — node 0 serves, nodes 1..n-1 run :class:`RpcClient` under the
  scenario's arrival spec.  With ``servers: N`` (N >= 2) nodes 0..N-1
  instead run one :class:`RpcServer` shard each and the
  clients route each request through the scenario's ``balancer``
  (``static`` consistent hashing, ``round_robin``, or ``least_pending``)
  over keys drawn uniform or Zipf-skewed (``key_skew``); per-shard
  overload policies come from ``shard_policies``.
* ``halo`` — all nodes run the halo-exchange stencil over MPI-FM.
* ``allreduce`` — all nodes run the data-parallel training step.
* ``pipeline`` — a streaming dataflow DAG (:mod:`repro.dataflow`): the
  scenario's ``pipeline`` shape (``rollup`` windowed aggregation or
  ``scatter_gather`` load balancing) with ``n_sources`` arrival-driven
  sources fanning out over ``branches`` lanes, placed per
  ``stage_placement`` (``spread`` / ``colocate``); bounded stage queues
  make FM credit flow control the backpressure.
* ``rdma`` — the one-sided RDMA put pingpong between nodes 0 and 1
  (:mod:`repro.workloads.rdma`).

Each kind is one :data:`KIND_TABLE` row: a stats factory and a run
function, so :func:`execute_scenario` has no per-kind branches.

Determinism: the report is a pure function of ``(scenario, plan)``.  Two
calls with equal specs produce byte-identical JSON (pinned by the smoke
test), which is what makes sweep results diffable across commits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterable, Optional

from repro.cluster.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1

from repro.dataflow.engine import (
    PIPELINES,
    PLACEMENTS,
    required_nodes,
    run_pipeline,
)
from repro.dataflow.records import MIN_RECORD_BYTES
from repro.dataflow.stats import PipelineStats
from repro.faults.plan import FaultPlan, NicStall
from repro.hardware.params import LinkParams
from repro.hardware.topology import Topology, switch_mesh

from repro.obs.metrics import RunStats
from repro.obs.slo import SloSpec, evaluate_slos

from repro.workloads.arrivals import (
    AggregateOpenLoop,
    ArrivalSpec,
    Bursty,
    ClosedLoop,
    OpenLoop,
)
from repro.workloads.replication import (
    ReplicatedClient,
    ReplicatedDirectory,
    ShardHealth,
    ShardSupervisor,
)
from repro.workloads.rpc import RpcClient, RpcEndpoint, RpcServer, VALID_POLICIES
from repro.workloads.sharding import (
    BALANCER_NAMES,
    ShardDirectory,
    ShardedClient,
    key_stream,
    make_balancer,
)
from repro.workloads.stats import WorkloadStats

MACHINES = {"sparc": SPARC_FM1, "ppro": PPRO_FM2}
ARRIVALS = ("open", "open-fixed", "closed", "bursty")


@dataclass(frozen=True)
class Scenario:
    """Everything one workload run depends on, as pure data."""

    name: str
    kind: str = "rpc"
    seed: int = 1
    n_nodes: int = 4
    fm_version: int = 2
    machine: str = "ppro"
    # -- rpc: arrival process (per client) --------------------------------
    arrival: str = "open"
    rate_rps: float = 20_000.0       # open / bursty offered load
    think_ns: int = 0                # closed-loop think time
    think_exponential: bool = False
    burst_on_ns: int = 200_000       # bursty on/off window
    burst_off_ns: int = 300_000
    # -- rpc: requests and service ----------------------------------------
    n_requests: int = 100            # per client
    req_bytes: int = 64
    resp_bytes: int = 64
    work_ns: int = 2_000             # service demand carried per request
    workers: int = 2
    queue_capacity: int = 16
    policy: str = "queue"
    deadline_ns: int = 0             # request deadline budget (0 = none)
    abandon_after_ns: Optional[int] = None
    extract_budget: Optional[int] = None   # server receiver flow control
    # -- rpc: sharding (servers >= 2 runs one RpcServer shard on each of
    # -- nodes 0..servers-1, clients on the rest) --------------------------
    servers: int = 1
    balancer: str = "static"         # static | round_robin | least_pending
    vnodes: int = 64                 # consistent-hash ring virtual nodes
    n_keys: int = 512                # request key universe per client
    key_skew: float = 0.0            # 0 = uniform; >0 = Zipf-like hot keys
    shard_policies: Optional[tuple] = None   # per-shard override of policy
    # -- rpc: replication & failover (replicas >= 2 places each key on R
    # -- ring-successor shards, carves the last client node out as the
    # -- ShardSupervisor's, and clients fail timed-out requests over) ------
    replicas: int = 1
    probe_interval_ns: int = 150_000   # supervisor probe cadence
    failover_timeout_ns: int = 250_000  # per-attempt client retry clock
    # -- halo / allreduce --------------------------------------------------
    iterations: int = 50
    halo_bytes: int = 256
    grad_bytes: int = 4096
    compute_ns: int = 5_000
    # -- pipeline (kind="pipeline"; reuses arrival/rate_rps per source,
    # -- n_requests as records per source, req_bytes as the per-record wire
    # -- footprint, work_ns as interior per-record demand, queue_capacity
    # -- as the bounded stage-queue depth, n_keys as the key universe) -----
    pipeline: str = "rollup"         # rollup | scatter_gather
    n_sources: int = 2
    branches: int = 2                # fan-out lanes
    window_ns: int = 200_000         # rollup window width
    window_slide_ns: int = 0         # 0 = tumbling
    partition_by: str = "hash"       # hash | round_robin fan-out selector
    stage_placement: str = "spread"  # spread | colocate
    sink_work_ns: int = 0            # per-record sink demand
    # -- telemetry: windowed time series + SLOs (0 / None = off) -----------
    sample_interval_ns: int = 0      # time-series window width
    slo_availability: Optional[float] = None   # e.g. 0.99 good fraction
    slo_latency_p99_ns: Optional[int] = None   # p99 latency target
    # -- run guard ---------------------------------------------------------
    until_ns: Optional[int] = None
    # -- topology grouping / parallel execution -----------------------------
    # partition_groups > 0 builds a switch_mesh of that many crossbar
    # groups (nodes split evenly) joined by trunk links of
    # trunk_propagation_ns; the *model* depends on these.  partitions is
    # purely an execution knob (how many OS worker processes simulate the
    # model; 0 = in-process serial) and is excluded from reports — results
    # are partition-count-invariant by construction.
    partition_groups: int = 0
    trunk_propagation_ns: int = 4_000
    partitions: int = 0
    # -- aggregate client populations (0 = one simulated client per node) ---
    # population simulated clients are spread over the client nodes as
    # AggregateOpenLoop sources: each node's generator issues the
    # superposed stream of its share of the population, and n_requests is
    # per simulated client.
    population: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KIND_TABLE:
            raise ValueError(f"kind must be one of {tuple(KIND_TABLE)}, "
                             f"got {self.kind!r}")
        if self.machine not in MACHINES:
            raise ValueError(f"machine must be one of {sorted(MACHINES)}, "
                             f"got {self.machine!r}")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"arrival must be one of {ARRIVALS}, "
                             f"got {self.arrival!r}")
        if self.balancer not in BALANCER_NAMES:
            raise ValueError(f"balancer must be one of {BALANCER_NAMES}, "
                             f"got {self.balancer!r}")
        if self.servers < 1:
            raise ValueError(f"servers must be positive, got {self.servers}")
        if self.kind == "rpc" and self.servers >= self.n_nodes:
            raise ValueError(
                f"{self.servers} servers on {self.n_nodes} nodes leaves no "
                "client")
        if self.shard_policies is not None:
            # Coerce the JSON-side list to a tuple (Scenario is frozen).
            policies = tuple(self.shard_policies)
            object.__setattr__(self, "shard_policies", policies)
            if len(policies) != self.servers:
                raise ValueError(
                    f"{len(policies)} shard_policies for "
                    f"{self.servers} servers")
            for policy in policies:
                if policy not in VALID_POLICIES:
                    raise ValueError(
                        f"shard policy must be one of {VALID_POLICIES}, "
                        f"got {policy!r}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be positive, got {self.replicas}")
        if self.probe_interval_ns < 1:
            raise ValueError(f"probe_interval_ns must be positive, "
                             f"got {self.probe_interval_ns}")
        if self.failover_timeout_ns < 1:
            raise ValueError(f"failover_timeout_ns must be positive, "
                             f"got {self.failover_timeout_ns}")
        if self.replicas > 1:
            if self.kind != "rpc":
                raise ValueError("replicas > 1 needs kind='rpc'")
            if self.servers < 2:
                raise ValueError(
                    "replicas > 1 needs a sharded service (servers >= 2): "
                    "a single server has nowhere to fail over to")
            if self.replicas > self.servers:
                raise ValueError(
                    f"replicas {self.replicas} exceeds the {self.servers} "
                    "shards available")
            if self.balancer != "static":
                raise ValueError(
                    "replicated routing is ring-placement + health based; "
                    f"balancer must be 'static', got {self.balancer!r}")
            if self.n_nodes - self.servers < 2:
                raise ValueError(
                    f"replicas > 1 carves one node out for the supervisor: "
                    f"{self.n_nodes} nodes minus {self.servers} servers "
                    "leaves no workload client beside it")
            if self.partitions:
                raise ValueError(
                    "replication is serial-only: the shared health map and "
                    "the supervisor need one global event view")
            if self.population:
                raise ValueError(
                    "replication does not compose with aggregate client "
                    "populations yet")
        if self.sample_interval_ns < 0:
            raise ValueError(f"sample_interval_ns must be non-negative, "
                             f"got {self.sample_interval_ns}")
        has_slo = (self.slo_availability is not None
                   or self.slo_latency_p99_ns is not None)
        if has_slo and not self.sample_interval_ns:
            raise ValueError(
                "SLO targets need sample_interval_ns > 0 (burn rates are "
                "computed over time-series windows)")
        if (self.slo_availability is not None
                and not 0.0 < self.slo_availability < 1.0):
            raise ValueError(f"slo_availability must be in (0, 1), "
                             f"got {self.slo_availability}")
        if (self.slo_latency_p99_ns is not None
                and self.slo_latency_p99_ns < 1):
            raise ValueError(f"slo_latency_p99_ns must be positive, "
                             f"got {self.slo_latency_p99_ns}")
        if self.partition_groups < 0:
            raise ValueError(f"partition_groups must be non-negative, "
                             f"got {self.partition_groups}")
        if self.trunk_propagation_ns < 1:
            raise ValueError(f"trunk_propagation_ns must be positive, "
                             f"got {self.trunk_propagation_ns}")
        if self.partition_groups:
            if self.n_nodes % self.partition_groups:
                raise ValueError(
                    f"{self.n_nodes} nodes do not split evenly over "
                    f"{self.partition_groups} switch groups")
            if self.kind == "rpc":
                npg = self.n_nodes // self.partition_groups
                per_group = -(-self.servers // self.partition_groups)
                if per_group > npg:
                    raise ValueError(
                        f"{self.servers} servers striped over "
                        f"{self.partition_groups} groups need {per_group} "
                        f"server slots per group, groups only have {npg} "
                        "nodes")
        if self.partitions < 0:
            raise ValueError(f"partitions must be non-negative, "
                             f"got {self.partitions}")
        if self.partitions:
            if self.kind != "rpc":
                raise ValueError(
                    "partitioned execution supports rpc workloads only "
                    f"(got kind={self.kind!r}); MPI collectives couple all "
                    "nodes every iteration and gain nothing from it")
            if not self.partition_groups:
                raise ValueError(
                    "partitions > 0 needs partition_groups > 0: the switch "
                    "groups are the units workers own, and their trunk "
                    "latency is the synchronization lookahead")
            if self.partition_groups % self.partitions:
                raise ValueError(
                    f"{self.partition_groups} switch groups do not split "
                    f"evenly over {self.partitions} partitions")
            # Features that need one global event view (or post-done
            # simulation) are serial-only; fail loudly rather than diverge.
            if self.until_ns is not None:
                raise ValueError("until_ns is serial-only: a global time "
                                 "guard needs one event loop")
            if self.abandon_after_ns is not None:
                raise ValueError(
                    "abandon_after_ns is serial-only: abandoned requests "
                    "leave server work running past the last client done, "
                    "which the partitioned stop rule does not simulate")
            if self.sample_interval_ns or self.slo_availability is not None \
                    or self.slo_latency_p99_ns is not None:
                raise ValueError("time-series telemetry and SLOs are "
                                 "serial-only (one global clock)")
        if self.population < 0:
            raise ValueError(f"population must be non-negative, "
                             f"got {self.population}")
        if self.population:
            if self.kind != "rpc":
                raise ValueError("population needs kind='rpc'")
            if self.arrival not in ("open", "open-fixed"):
                raise ValueError(
                    "population aggregates open-loop sources; arrival must "
                    f"be open or open-fixed, got {self.arrival!r}")
            n_clients = self.n_nodes - self.servers
            if self.population < n_clients:
                raise ValueError(
                    f"population {self.population} is smaller than the "
                    f"{n_clients} client nodes — every generator node "
                    "needs at least one simulated client")
        if self.pipeline not in PIPELINES:
            raise ValueError(f"pipeline must be one of {PIPELINES}, "
                             f"got {self.pipeline!r}")
        if self.stage_placement not in PLACEMENTS:
            raise ValueError(f"stage_placement must be one of {PLACEMENTS}, "
                             f"got {self.stage_placement!r}")
        if self.partition_by not in ("hash", "round_robin"):
            raise ValueError(f"partition_by must be hash/round_robin, "
                             f"got {self.partition_by!r}")
        if self.n_sources < 1:
            raise ValueError(f"n_sources must be positive, got {self.n_sources}")
        if self.branches < 1:
            raise ValueError(f"branches must be positive, got {self.branches}")
        if self.window_ns < 1:
            raise ValueError(f"window_ns must be positive, got {self.window_ns}")
        if self.window_slide_ns < 0 or (
                self.window_slide_ns and self.window_ns % self.window_slide_ns):
            raise ValueError(
                f"window_slide_ns must be 0 (tumbling) or divide window_ns "
                f"{self.window_ns}, got {self.window_slide_ns}")
        if self.sink_work_ns < 0:
            raise ValueError(f"sink_work_ns must be non-negative, "
                             f"got {self.sink_work_ns}")
        if self.kind == "pipeline":
            if self.fm_version != 2:
                raise ValueError(
                    "pipelines ride FM 2.x streams (gather/scatter + "
                    "extract pacing); fm_version must be 2")
            if self.arrival == "closed":
                raise ValueError(
                    "pipeline sources are one-way streams with no "
                    "responses to close the loop on; arrival must be "
                    "open/open-fixed/bursty")
            if self.req_bytes < MIN_RECORD_BYTES:
                raise ValueError(
                    f"req_bytes is the per-record wire footprint and must "
                    f"be >= {MIN_RECORD_BYTES}, got {self.req_bytes}")
            need = required_nodes(self.pipeline, self.n_sources,
                                  self.branches, self.stage_placement)
            if self.n_nodes < need:
                raise ValueError(
                    f"{self.stage_placement!r} placement of this pipeline "
                    f"needs >= {need} nodes, got {self.n_nodes}")
            if self.servers != 1 or self.replicas != 1:
                raise ValueError(
                    "sharding/replication are rpc concepts; pipelines "
                    "express parallelism as branches")
            if self.population or self.partition_groups or self.partitions:
                raise ValueError(
                    "pipelines are serial-only and unpartitioned for now "
                    "(population/partition_groups/partitions must be 0)")
            if self.sample_interval_ns or has_slo:
                raise ValueError(
                    "pipeline telemetry is per-stage (queue depth + credit "
                    "stalls); time-series sampling and SLOs are rpc-only")
        if self.kind == "rdma":
            if self.fm_version != 2:
                raise ValueError(
                    "the one-sided transport extends the FM 2.x NIC "
                    "firmware; fm_version must be 2")
            if self.iterations < 1:
                raise ValueError(
                    f"iterations must be positive, got {self.iterations}")
            if self.req_bytes < 1:
                raise ValueError(
                    f"req_bytes (per-put payload) must be positive, "
                    f"got {self.req_bytes}")
            if self.partitions or self.partition_groups:
                raise ValueError(
                    "the rdma pingpong is a two-node serial smoke "
                    "workload; partitioning does not apply")

    @property
    def n_shards(self) -> int:
        """Shard count of a sharded rpc service (0 when unsharded)."""
        return self.servers if self.kind == "rpc" and self.servers > 1 else 0

    def slo_specs(self) -> tuple[SloSpec, ...]:
        """The declarative SLOs this scenario evaluates: one aggregate
        spec per target, plus a per-shard variant for sharded services
        (the failover supervisor's per-shard health signal)."""
        specs: list[SloSpec] = []
        shards = range(self.n_shards)
        if self.slo_availability is not None:
            specs.append(SloSpec("availability", "availability",
                                 self.slo_availability))
            specs.extend(
                SloSpec(f"availability.shard{i}", "availability",
                        self.slo_availability, shard=i) for i in shards)
        if self.slo_latency_p99_ns is not None:
            specs.append(SloSpec("latency_p99", "latency", 0.99,
                                 threshold_ns=self.slo_latency_p99_ns))
            specs.extend(
                SloSpec(f"latency_p99.shard{i}", "latency", 0.99,
                        threshold_ns=self.slo_latency_p99_ns, shard=i)
                for i in shards)
        return tuple(specs)

    def arrival_spec(self) -> ArrivalSpec:
        """Materialise the arrival-process spec named by ``self.arrival``."""
        if self.arrival == "open":
            return OpenLoop(self.rate_rps)
        if self.arrival == "open-fixed":
            return OpenLoop(self.rate_rps, poisson=False)
        if self.arrival == "closed":
            return ClosedLoop(self.think_ns, exponential=self.think_exponential)
        return Bursty(self.rate_rps, self.burst_on_ns, self.burst_off_ns)

    @classmethod
    def from_dict(cls, spec: dict) -> "Scenario":
        unknown = set(spec) - {f.name for f in
                               cls.__dataclass_fields__.values()}
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**spec)


def placement(scenario: Scenario) -> tuple[list[int], list[int]]:
    """Node ids of ``(server nodes, client nodes)`` for an rpc scenario.

    Ungrouped scenarios keep the legacy layout (servers on ``0..S-1``).
    Grouped scenarios stripe servers across switch groups — server ``s``
    lands in group ``s % G`` at within-group offset ``s // G`` — so every
    group serves locally and trunk traffic reflects the balancer rather
    than an accident of placement.  Shard ``i`` is the i-th server node in
    ascending id order.  Pure function of the scenario: partition workers
    and the serial runner agree with no coordination.
    """
    if scenario.partition_groups <= 0:
        server_nodes = list(range(scenario.servers))
    else:
        g = scenario.partition_groups
        npg = scenario.n_nodes // g
        server_nodes = sorted(
            (s % g) * npg + s // g for s in range(scenario.servers))
    owned = set(server_nodes)
    client_nodes = [i for i in range(scenario.n_nodes) if i not in owned]
    return server_nodes, client_nodes


def scenario_topology(
        scenario: Scenario,
        machine) -> tuple[Optional[Topology], Optional[LinkParams]]:
    """The ``(topology, trunk LinkParams)`` for grouped scenarios
    (``(None, None)`` keeps the single-crossbar default)."""
    if scenario.partition_groups <= 0:
        return None, None
    topology = switch_mesh(scenario.n_nodes, scenario.partition_groups)
    trunk = replace(machine.link,
                    propagation_ns=scenario.trunk_propagation_ns)
    return topology, trunk


def population_shares(population: int, n_clients: int) -> list[int]:
    """Split ``population`` simulated clients over ``n_clients`` generator
    nodes (earlier nodes take the remainder — pure function of the
    arguments, so every partitioning computes the same split)."""
    base, extra = divmod(population, n_clients)
    return [base + 1 if j < extra else base for j in range(n_clients)]


def client_arrival(scenario: Scenario, position: int,
                   n_clients: int) -> tuple[ArrivalSpec, int]:
    """Arrival spec and request budget for the client at ``position`` in
    the scenario's client-node list.

    Population scenarios hand each node an :class:`AggregateOpenLoop`
    covering its share of the simulated clients (``n_requests`` is per
    simulated client, so the node's budget scales with its share);
    otherwise every client runs the scenario's own spec.
    """
    if scenario.population <= 0:
        return scenario.arrival_spec(), scenario.n_requests
    share = population_shares(scenario.population, n_clients)[position]
    spec = AggregateOpenLoop(scenario.rate_rps, population=share,
                             poisson=(scenario.arrival == "open"))
    return spec, scenario.n_requests * share


def build_server(scenario: Scenario, endpoint: RpcEndpoint,
                 stats: WorkloadStats,
                 shard: Optional[int] = None) -> RpcServer:
    """The server program for one server node (``shard`` is the global
    shard index for sharded services, ``None`` for the single-server
    case).  Shared by the serial runner and partition workers so both
    build bit-identical servers."""
    if shard is None:
        policy = scenario.policy
    else:
        policies = (scenario.shard_policies
                    or (scenario.policy,) * scenario.servers)
        policy = policies[shard]
    return RpcServer(endpoint, stats, workers=scenario.workers,
                     queue_capacity=scenario.queue_capacity, policy=policy,
                     resp_bytes=scenario.resp_bytes,
                     extract_budget=scenario.extract_budget, shard=shard)


def deploy_rpc(scenario: Scenario, nodes: Iterable,
               stats: WorkloadStats) -> dict[int, RpcClient]:
    """Start the servers and build the clients placed on ``nodes``.

    ``nodes`` are the caller's nodes in ascending id order: every node for
    the serial runner, a worker's own for a partitioned run.  Endpoints
    are built in that order, so handler ids agree with a serial build
    (handler ids index the receiver's table — SPMD registration).
    Returns ``{node_id: client}`` in client-position order.

    Each client owns its balancer instance (``least_pending`` is a
    per-client view) and routes through a :class:`ShardDirectory` — pure
    data, so a worker that owns none of the server nodes can still build
    its clients.
    """
    endpoints = {node.node_id: RpcEndpoint(node, stats) for node in nodes}
    server_nodes, client_nodes = placement(scenario)
    for shard, node_id in enumerate(server_nodes):
        if node_id in endpoints:
            build_server(scenario, endpoints[node_id], stats,
                         shard=shard if scenario.n_shards else None).start()
    clients: dict[int, RpcClient] = {}
    for position, node_id in enumerate(client_nodes):
        if node_id not in endpoints:
            continue
        spec, n_requests = client_arrival(scenario, position,
                                          len(client_nodes))
        common = dict(arrivals=spec, seed=scenario.seed,
                      n_requests=n_requests, req_bytes=scenario.req_bytes,
                      work_ns=scenario.work_ns,
                      deadline_ns=scenario.deadline_ns,
                      abandon_after_ns=scenario.abandon_after_ns,
                      name=f"client{node_id}")
        if scenario.n_shards:
            clients[node_id] = ShardedClient(
                endpoints[node_id], ShardDirectory(server_nodes),
                make_balancer(scenario.balancer, scenario.servers,
                              scenario.vnodes),
                key_stream(scenario.seed, f"client{node_id}",
                           scenario.n_keys, scenario.key_skew),
                **common)
        else:
            clients[node_id] = RpcClient(endpoints[node_id], server_nodes[0],
                                         **common)
    return clients


def _run_clients(cluster: Cluster, scenario: Scenario,
                 clients: dict[int, RpcClient]) -> None:
    """Run ``{node_id: client}`` as the cluster's node programs."""
    programs: list = [None] * cluster.n_nodes
    for node_id, client in clients.items():
        programs[node_id] = (lambda node, client=client: client.run())
    cluster.run(programs, until_ns=scenario.until_ns)


def _run_rpc(cluster: Cluster, scenario: Scenario,
             stats: WorkloadStats) -> dict:
    if scenario.replicas > 1:
        return _run_rpc_replicated(cluster, scenario, stats)
    _run_clients(cluster, scenario, deploy_rpc(scenario, cluster.nodes, stats))
    return {}


def _run_rpc_replicated(cluster: Cluster, scenario: Scenario,
                        stats: WorkloadStats) -> dict:
    """The ``replicas >= 2`` rpc path: replicated clients, a shared
    health map, and a :class:`ShardSupervisor` on the last client node.

    The supervisor's endpoint is bound to its own stats object, so probe
    traffic — real messages on the same fabric — never pollutes the
    workload's counters or time series.  Returns the ``replication``
    report section: the control-plane story.
    """
    server_nodes, client_nodes = placement(scenario)
    supervisor_node = client_nodes[-1]
    client_nodes = client_nodes[:-1]
    probe_stats = WorkloadStats(cluster.env, name=f"probe.{scenario.name}")
    # Endpoints on every node, in node order (SPMD handler registration).
    endpoints = [
        RpcEndpoint(node,
                    probe_stats if node.node_id == supervisor_node else stats)
        for node in cluster.nodes]
    for shard, node_id in enumerate(server_nodes):
        build_server(scenario, endpoints[node_id], stats, shard=shard).start()
    directory = ReplicatedDirectory(
        server_nodes, ShardHealth(cluster.env, scenario.servers),
        replicas=scenario.replicas, vnodes=scenario.vnodes)
    supervisor = ShardSupervisor(
        endpoints[supervisor_node], directory,
        probe_interval_ns=scenario.probe_interval_ns,
        probe_timeout_ns=scenario.failover_timeout_ns,
        workload_stats=stats,
        availability_target=scenario.slo_availability)
    supervisor.start()
    clients = {
        node_id: ReplicatedClient(
            endpoints[node_id], directory,
            make_balancer("static", scenario.servers, scenario.vnodes),
            key_stream(scenario.seed, f"client{node_id}", scenario.n_keys,
                       scenario.key_skew),
            failover_timeout_ns=scenario.failover_timeout_ns,
            arrivals=scenario.arrival_spec(), seed=scenario.seed,
            n_requests=scenario.n_requests, req_bytes=scenario.req_bytes,
            work_ns=scenario.work_ns, deadline_ns=scenario.deadline_ns,
            abandon_after_ns=scenario.abandon_after_ns,
            name=f"client{node_id}")
        for node_id in client_nodes
    }
    _run_clients(cluster, scenario, clients)
    return {"replication": {
        "replicas": scenario.replicas,
        "probe_interval_ns": scenario.probe_interval_ns,
        "failover_timeout_ns": scenario.failover_timeout_ns,
        "failovers": stats.counters["failover"],
        "retried": stats.counters["retried"],
        **supervisor.result(),
    }}


def _run_mpi(cluster: Cluster, scenario: Scenario,
             stats: WorkloadStats) -> dict:
    from repro.upper.mpi.world import build_mpi_world
    from repro.workloads.apps import allreduce_program, halo_program

    app, size_field = {"halo": (halo_program, "halo_bytes"),
                       "allreduce": (allreduce_program, "grad_bytes")}[
                           scenario.kind]
    programs = [app(comm, iterations=scenario.iterations,
                    compute_ns=scenario.compute_ns, stats=stats,
                    **{size_field: getattr(scenario, size_field)})
                for comm in build_mpi_world(cluster)]
    cluster.run([(lambda node, program=program: program())
                 for program in programs], until_ns=scenario.until_ns)
    return {}


def _run_pipeline(cluster: Cluster, scenario: Scenario,
                  stats: PipelineStats) -> dict:
    edges = run_pipeline(cluster, scenario, stats).edge_report()
    return {"results": {"edges": edges}}


def _run_rdma(cluster: Cluster, scenario: Scenario, stats) -> dict:
    from repro.workloads.rdma import run_rdma_pingpong

    run_rdma_pingpong(cluster, scenario, stats)
    return {}


def _workload_stats(scenario: Scenario, env) -> WorkloadStats:
    return WorkloadStats(env, name=f"workload.{scenario.name}",
                         n_shards=scenario.n_shards,
                         sample_interval_ns=scenario.sample_interval_ns)


def _pipeline_stats(scenario: Scenario, env) -> PipelineStats:
    return PipelineStats(env, name=f"pipeline.{scenario.name}")


def _rdma_stats(scenario: Scenario, env):
    from repro.workloads.rdma import RdmaStats

    return RdmaStats(env, name=f"rdma.{scenario.name}")


#: ``kind -> (make_stats(scenario, env), run(cluster, scenario, stats))``.
#: ``run`` drives the workload to completion and returns its extra report
#: sections; a ``results`` entry among them extends the stats' block.
KIND_TABLE = {
    "rpc": (_workload_stats, _run_rpc),
    "halo": (_workload_stats, _run_mpi),
    "allreduce": (_workload_stats, _run_mpi),
    "pipeline": (_pipeline_stats, _run_pipeline),
    "rdma": (_rdma_stats, _run_rdma),
}


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced.

    ``report`` is the deterministic JSON fragment :func:`run_scenario`
    returns; the live objects (cluster, stats, observer, injector) are
    for callers that need more than the report — trace export, waterfall
    rendering, breakdown reports.
    """

    scenario: Scenario
    cluster: Optional[Cluster]
    stats: Optional[RunStats]
    report: dict
    observer: Optional[object] = None
    injector: Optional[object] = None


def scenario_report_dict(scenario: Scenario) -> dict:
    """The scenario as report JSON — minus ``partitions``, the one field
    that names how the run executed rather than what was simulated.
    Reports are byte-identical across partition counts; keeping the knob
    out of the report is what lets the invariance tests compare them
    with ``==``."""
    spec = asdict(scenario)
    del spec["partitions"]
    if scenario.replicas == 1:
        # Unreplicated runs keep the pre-replication report schema
        # byte-identical: the knobs only exist once replication is on.
        for name in ("replicas", "probe_interval_ns", "failover_timeout_ns"):
            del spec[name]
    if scenario.kind != "pipeline":
        # Same pattern for the dataflow knobs: non-pipeline reports keep
        # their pre-dataflow schema byte-identical.
        for name in ("pipeline", "n_sources", "branches", "window_ns",
                     "window_slide_ns", "partition_by", "stage_placement",
                     "sink_work_ns"):
            del spec[name]
    return spec


def scenario_report(scenario: Scenario, results: dict,
                    sim_end_ns: int) -> dict:
    """The report core every run returns, serial or partitioned."""
    return {
        "scenario": scenario_report_dict(scenario),
        "results": results,
        "sim_end_ns": sim_end_ns,
    }


def execute_scenario(scenario: Scenario, plan=None,
                     observe: bool = False) -> ScenarioOutcome:
    """Run one scenario to completion; returns the full outcome.

    ``plan`` is an optional :class:`~repro.faults.plan.FaultPlan`;
    ``observe=True`` attaches an observer (spans + metrics federation +
    per-request trace contexts) — both compose through the cluster's
    standard hooks and neither changes the simulated results.

    Scenarios with ``partitions > 0`` run on OS worker processes (one
    per partition) and return a report-only outcome: the live cluster
    and stats objects belong to the workers and do not survive the run.
    """
    if scenario.partitions > 0:
        if plan is not None or observe:
            raise ValueError(
                "fault plans and observers are serial-only: both need one "
                "global event loop (drop partitions to use them)")
        from repro.workloads.partitioned import run_partitioned

        return ScenarioOutcome(scenario, None, None,
                               run_partitioned(scenario))
    machine = MACHINES[scenario.machine]
    topology, trunk = scenario_topology(scenario, machine)
    cluster = Cluster(scenario.n_nodes, machine=machine,
                      fm_version=scenario.fm_version, topology=topology,
                      trunk_params=trunk)
    injector = cluster.inject_faults(plan) if plan is not None else None
    observer = cluster.observe() if observe else None
    make_stats, run = KIND_TABLE[scenario.kind]
    stats = make_stats(scenario, cluster.env)
    if observer is not None:
        stats.federate(observer.metrics)
    sections = run(cluster, scenario, stats)
    results = {**stats.report(), **sections.pop("results", {})}
    report = scenario_report(scenario, results, cluster.now)
    specs = scenario.slo_specs()
    if specs:
        report["slo"] = evaluate_slos(stats.timeseries, specs)
    report.update(sections)
    if injector is not None:
        report["faults"] = {
            "events": len(injector.events),
            "counters": dict(sorted(injector.counters.as_dict().items())),
        }
        windows = stats.fault_window_report(plan.windows())
        if windows is not None:
            report["fault_windows"] = windows
    return ScenarioOutcome(scenario, cluster, stats, report,
                           observer, injector)


def run_scenario(scenario: Scenario, plan=None, observe: bool = False) -> dict:
    """Run one scenario; returns just the report dict (see
    :func:`execute_scenario` for the full outcome)."""
    return execute_scenario(scenario, plan=plan, observe=observe).report


#: Named scenarios the CLI (and the smoke tests) run out of the box.
PRESETS = {
    "rpc-open": Scenario(name="rpc-open", kind="rpc", arrival="open",
                         rate_rps=20_000.0, n_requests=60),
    "rpc-closed": Scenario(name="rpc-closed", kind="rpc", arrival="closed",
                           think_ns=10_000, n_requests=60),
    "rpc-incast": Scenario(name="rpc-incast", kind="rpc", arrival="bursty",
                           n_nodes=6, rate_rps=50_000.0, n_requests=40,
                           policy="shed", queue_capacity=8),
    # Saturating 4-shard fan-out: offered load (6 clients x 80k) well past
    # aggregate capacity, so delivered throughput reads as capacity and the
    # per-shard sections show the consistent-hash split.
    "rpc-sharded": Scenario(name="rpc-sharded", kind="rpc", arrival="open",
                            n_nodes=10, servers=4, balancer="static",
                            rate_rps=80_000.0, n_requests=40,
                            req_bytes=256, resp_bytes=256, work_ns=0),
    # Same traffic with Zipf-skewed keys: the static ring's hot shard shows
    # up in the report's imbalance ratio (least_pending flattens it).
    "rpc-sharded-skew": Scenario(name="rpc-sharded-skew", kind="rpc",
                                 arrival="open", n_nodes=10, servers=4,
                                 balancer="static", key_skew=1.2,
                                 rate_rps=80_000.0, n_requests=40,
                                 req_bytes=256, resp_bytes=256, work_ns=0),
    # Sharded run with telemetry armed: windowed time series plus
    # availability / p99-latency SLOs.  Healthy, the run stays inside
    # budget; a NicStall on a server node (``--nic-stall
    # 1:2000000:6000000:120000`` from the CLI) makes clients abandon
    # into that shard and the burn-rate detector fires a breach inside
    # the stall window.
    "rpc-sharded-slo": Scenario(name="rpc-sharded-slo", kind="rpc",
                                arrival="open", n_nodes=10, servers=4,
                                balancer="static", rate_rps=40_000.0,
                                n_requests=40, req_bytes=256,
                                resp_bytes=256, work_ns=0,
                                abandon_after_ns=400_000,
                                sample_interval_ns=200_000,
                                slo_availability=0.99,
                                slo_latency_p99_ns=250_000),
    # Grouped-fabric smoke scenario for the partitioned engine: 8 nodes
    # over 2 crossbar groups joined by a 4 us trunk, 2 shards striped one
    # per group.  Runs on 2 worker processes out of the box; the
    # invariance tests pin its report byte-identical at partitions 0/1/2.
    "rpc-partitioned": Scenario(name="rpc-partitioned", kind="rpc",
                                arrival="open", n_nodes=8,
                                partition_groups=2, partitions=2,
                                servers=2, balancer="static",
                                rate_rps=20_000.0, n_requests=40,
                                req_bytes=128, resp_bytes=128,
                                work_ns=2_000),
    # The headline 10^5-client scenario: 100k simulated open-loop clients
    # collapsed onto 12 generator nodes via AggregateOpenLoop, feeding 4
    # shards striped over 4 groups, one request per simulated client.
    # Aggregate offered load 250k rps (~55% of the fabric's measured
    # ~440k rps knee — partitioned fidelity needs sub-saturation
    # operation, see ARCHITECTURE) over a ~400 ms horizon; runs on 4
    # workers by default (--partitions 0 for the serial reference).
    "rpc-aggregate-100k": Scenario(name="rpc-aggregate-100k", kind="rpc",
                                   arrival="open", n_nodes=16,
                                   partition_groups=4, partitions=4,
                                   trunk_propagation_ns=8_000,
                                   servers=4, balancer="static",
                                   population=100_000, rate_rps=2.5,
                                   n_requests=1, req_bytes=64,
                                   resp_bytes=64, work_ns=1_000,
                                   workers=4, queue_capacity=64),
    # The replication headline: 4 shards with R=2 ring-successor
    # placement, 5 closed-loop clients, a supervisor probing every 150 us,
    # and (via PRESET_PLANS) a 3 ms NicStall blacking out node 1's NIC.
    # Clients fail timed-out requests over to the backup replica, so
    # availability inside the fault window stays >= 0.99 — the
    # ``fault_windows`` report section is the number to read.
    "rpc-replicated-failover": Scenario(name="rpc-replicated-failover",
                                        kind="rpc", arrival="closed",
                                        n_nodes=10, servers=4, replicas=2,
                                        balancer="static", think_ns=30_000,
                                        n_requests=150, req_bytes=256,
                                        resp_bytes=256, work_ns=0,
                                        abandon_after_ns=400_000,
                                        probe_interval_ns=150_000,
                                        failover_timeout_ns=250_000,
                                        sample_interval_ns=250_000,
                                        slo_availability=0.99),
    # The unreplicated control: same clients (nodes 4..8, so identical
    # key/arrival draws), same NicStall window, R=1 — the stalled shard's
    # key range blacks out (clients burn the abandon budget per hit) and
    # fault-window availability craters.  Diff against the preset above.
    "rpc-sharded-blackout": Scenario(name="rpc-sharded-blackout",
                                     kind="rpc", arrival="closed",
                                     n_nodes=9, servers=4,
                                     balancer="static", think_ns=30_000,
                                     n_requests=150, req_bytes=256,
                                     resp_bytes=256, work_ns=0,
                                     abandon_after_ns=400_000,
                                     sample_interval_ns=250_000,
                                     slo_availability=0.99),
    "mpi-halo": Scenario(name="mpi-halo", kind="halo", iterations=30,
                         halo_bytes=256, compute_ns=5_000),
    # One-sided transport smoke: 40 pingpong rounds of 4 KB RDMA puts
    # between two nodes.  The report's ``transport_errors`` section is
    # the CI gate — any unmatched-region or corrupt-offload drop on any
    # NIC fails the build.
    "rdma-pingpong": Scenario(name="rdma-pingpong", kind="rdma",
                              n_nodes=2, iterations=40, req_bytes=4096),
    "mpi-allreduce": Scenario(name="mpi-allreduce", kind="allreduce",
                              iterations=20, grad_bytes=4096,
                              compute_ns=10_000),
    # The dataflow headline: 3 open-loop sources -> 4 hash-partitioned
    # lanes of 200 us tumbling sum-rollup -> gathered sink, one stage per
    # node (spread).  900 source records over ~3 ms; the report's
    # conservation section proves sum(sink counts) == records emitted.
    "dataflow-rollup": Scenario(name="dataflow-rollup", kind="pipeline",
                                pipeline="rollup", arrival="open",
                                n_nodes=8, n_sources=3, branches=4,
                                rate_rps=100_000.0, n_requests=300,
                                req_bytes=64, work_ns=500,
                                window_ns=200_000, partition_by="hash",
                                n_keys=32, queue_capacity=16),
    # The load-balancing shape: 2 sources round-robin-scattered over 4
    # map lanes (2 us per-record demand) and gathered into one sink.
    "dataflow-scatter-gather": Scenario(name="dataflow-scatter-gather",
                                        kind="pipeline",
                                        pipeline="scatter_gather",
                                        arrival="open", n_nodes=7,
                                        n_sources=2, branches=4,
                                        rate_rps=150_000.0, n_requests=400,
                                        req_bytes=64, work_ns=2_000,
                                        n_keys=64, queue_capacity=16),
    # The rollup under fire: PRESET_PLANS stalls node 4 (interior window
    # lane 1) 20 us/packet for 2 ms.  Backpressure, not loss: the stall
    # surfaces as source-side credit stalls in the per-stage telemetry,
    # conservation still holds, and until_ns turns any hang into a loud
    # TimeoutError instead of a wedged run.
    "dataflow-rollup-stall": Scenario(name="dataflow-rollup-stall",
                                      kind="pipeline", pipeline="rollup",
                                      arrival="open", n_nodes=8,
                                      n_sources=3, branches=4,
                                      rate_rps=100_000.0, n_requests=300,
                                      req_bytes=64, work_ns=500,
                                      window_ns=200_000,
                                      partition_by="hash", n_keys=32,
                                      queue_capacity=16,
                                      until_ns=50_000_000),
}

#: One-line description per preset — what ``--list-presets`` prints
#: (tests enforce full coverage of :data:`PRESETS`).
PRESET_DESCRIPTIONS = {
    "rpc-open": "open-loop Poisson RPC against a single server",
    "rpc-closed": "closed-loop (think-time) RPC against a single server",
    "rpc-incast": "bursty 5-client incast onto a shedding server",
    "rpc-sharded": "saturating fan-out over 4 consistent-hash shards",
    "rpc-sharded-skew": "4 shards under Zipf(1.2) hot-key skew",
    "rpc-sharded-slo": "sharded RPC with time-series + SLO burn-rate "
                       "telemetry armed",
    "rpc-partitioned": "2-group switch mesh on 2 worker processes "
                       "(byte-identical to serial)",
    "rpc-aggregate-100k": "100k simulated open-loop clients on 4 worker "
                          "processes",
    "rpc-replicated-failover": "R=2 replicated shards + supervisor riding "
                               "out a built-in NIC stall",
    "rpc-sharded-blackout": "unreplicated control for the failover preset "
                            "(same stall, availability craters)",
    "mpi-halo": "MPI halo-exchange stencil over FM",
    "rdma-pingpong": "one-sided RDMA put pingpong (CI transport smoke: "
                     "zero-error gate)",
    "mpi-allreduce": "data-parallel allreduce training step over FM",
    "dataflow-rollup": "3 sources -> 4 hash lanes of windowed sum-rollup "
                       "-> sink, spread placement",
    "dataflow-scatter-gather": "2 sources round-robin-scattered over 4 "
                               "map lanes, gathered into one sink",
    "dataflow-rollup-stall": "the rollup with a built-in NIC stall on an "
                             "interior lane (backpressure, zero drops)",
}

#: The NicStall window both fault presets compose: node 1's NIC takes an
#: extra 400 us per packet for 3 ms — long past the failover timeout, so
#: the shard on node 1 is effectively dead for the window.
_FAILOVER_STALL = NicStall(node=1, start_ns=2_000_000, end_ns=5_000_000,
                           extra_ns=400_000)

#: Fault plans that belong with a preset: the CLI composes these
#: automatically (unless overridden with --nic-stall / --no-fault), so
#: ``python -m repro.workloads.run rpc-replicated-failover`` is the whole
#: failover story in one command.
PRESET_PLANS = {
    "rpc-replicated-failover": FaultPlan(seed=1,
                                         episodes=(_FAILOVER_STALL,)),
    "rpc-sharded-blackout": FaultPlan(seed=1, episodes=(_FAILOVER_STALL,)),
    # Node 4 hosts rollup lane 1 under spread placement: an interior
    # pipeline stage, not a source or the sink.  20 us per packet for 2 ms
    # slows its receive path enough that FM credits pace the sources.
    "dataflow-rollup-stall": FaultPlan(seed=1, episodes=(
        NicStall(node=4, start_ns=500_000, end_ns=2_500_000,
                 extra_ns=20_000),)),
}
