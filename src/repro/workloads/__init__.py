"""Deterministic workload generation and service: traffic on the stack.

The layers below (:mod:`repro.core`, :mod:`repro.upper`) answer "how fast
is one message?"; this package answers the paper's implicit follow-up —
*what happens under sustained load?* — with seedable arrival processes
(:mod:`~repro.workloads.arrivals`), an RPC service layer with explicit
overload policy (:mod:`~repro.workloads.rpc`), miniature MPI applications
(:mod:`~repro.workloads.apps`), streaming statistics
(:mod:`~repro.workloads.stats`), and a scenario runner + CLI
(:mod:`~repro.workloads.runner`, ``python -m repro.workloads.run``).

Determinism contract: a report is a pure function of its scenario spec
(and optional fault plan); observation and fault hooks compose through
the standard ``Cluster.observe()`` / ``Cluster.inject_faults()`` pattern.
"""

from repro.workloads.arrivals import (ArrivalSpec, Bursty, ClosedLoop,
                                      OpenLoop, client_rng, gap_stream)
from repro.workloads.replication import (ReplicatedClient,
                                         ReplicatedDirectory,
                                         ReplicatedService, ShardHealth,
                                         ShardSupervisor)
from repro.workloads.rpc import (RPC_EXPIRED, RPC_OK, RPC_SHED, RpcClient,
                                 RpcEndpoint, RpcServer)
from repro.workloads.runner import PRESET_PLANS, PRESETS, Scenario, \
    run_scenario
from repro.workloads.sharding import (HashRing, ShardDirectory,
                                      ShardedClient, ShardedService)
from repro.workloads.stats import WorkloadStats

__all__ = [
    "ArrivalSpec", "Bursty", "ClosedLoop", "OpenLoop", "client_rng",
    "gap_stream",
    "ReplicatedClient", "ReplicatedDirectory", "ReplicatedService",
    "ShardHealth", "ShardSupervisor",
    "RPC_EXPIRED", "RPC_OK", "RPC_SHED", "RpcClient", "RpcEndpoint",
    "RpcServer",
    "PRESET_PLANS", "PRESETS", "Scenario", "run_scenario",
    "HashRing", "ShardDirectory", "ShardedClient", "ShardedService",
    "WorkloadStats",
]
