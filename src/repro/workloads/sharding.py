"""Sharded multi-server RPC services with client-side load balancing.

One server's saturation knee is where :mod:`repro.workloads.rpc` stops;
this module is the scale-out step the ROADMAP asks for: a
:class:`ShardedService` runs N :class:`~repro.workloads.rpc.RpcServer`
instances on distinct nodes behind one client-facing API, and every
client routes each request through a pluggable client-side
:class:`Balancer`:

* ``static`` (:class:`ConsistentHash`) — a consistent-hash ring over
  request keys with virtual nodes, the classic sharded-KV discipline:
  the shard for a key never depends on who else is sending, so caches
  and ownership stay stable, but skewed key popularity lands on one
  shard and the service pays an imbalance penalty.
* ``round_robin`` (:class:`RoundRobin`) — each client cycles through the
  shards; oblivious to both keys and load.
* ``least_pending`` (:class:`LeastPending`) — pick the shard with the
  fewest in-flight requests *from this client's view* (the
  ``on_resolved`` callback keeps that view honest without any global
  state — there is no oracle, exactly like a real client-side balancer).

Request keys come from :func:`key_stream` — a per-client deterministic
stream, uniform or Zipf-skewed — so balancer comparisons under hot-key
traffic are reproducible bit-for-bit.

Everything here is client-side bookkeeping (zero simulated cost): what
the simulation measures is where the *messages* go, which is the point —
the paper's layering argument (§5) extends to services only if the FM
interface keeps its efficiency when one client fans out across hosts.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Generator, Iterator, Optional, Sequence

import numpy as np

from repro.workloads.arrivals import ArrivalSpec, client_rng
from repro.workloads.rpc import RpcClient, RpcEndpoint, RpcServer, VALID_POLICIES
from repro.workloads.stats import WorkloadStats

BALANCER_NAMES = ("static", "round_robin", "least_pending")


def _h32(data: bytes) -> int:
    """Deterministic 32-bit hash (crc32 — stable across processes, unlike
    Python's seeded ``hash``)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def key_stream(seed: int, client: str, n_keys: int,
               skew: float = 0.0) -> Iterator[int]:
    """An infinite deterministic stream of request keys for one client.

    ``skew == 0`` draws uniformly over ``[0, n_keys)``; ``skew > 0``
    draws Zipf-like with rank ``r`` weighted ``1/(r+1)**skew`` — the
    hot-key traffic shape that separates hash placement from
    load-aware placement.  The stream is keyed off ``(seed, client)``
    like the arrival gaps, but on its own RNG stream so adding keys
    never shifts a client's arrival draws.
    """
    if n_keys < 1:
        raise ValueError(f"n_keys must be positive, got {n_keys}")
    if skew < 0:
        raise ValueError(f"skew must be non-negative, got {skew}")
    rng = client_rng(seed, f"keys:{client}")
    if skew == 0.0:
        while True:
            yield int(rng.integers(0, n_keys))
    weights = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** skew
    p = weights / weights.sum()
    # Precomputed CDF + one uniform draw per key: O(log n_keys) per draw
    # instead of ``rng.choice(n_keys, p=p)``'s O(n_keys) cumsum per call.
    # The normalisation below replicates Generator.choice exactly
    # (cumsum, then divide by the last partial sum), so the drawn stream
    # is draw-for-draw identical to the old one (pinned by test).
    cdf = p.cumsum()
    cdf /= cdf[-1]
    while True:
        yield int(cdf.searchsorted(rng.random(), side="right"))


class HashRing:
    """A consistent-hash ring over shard indices with virtual nodes.

    Each shard contributes ``vnodes`` points at ``crc32("shard<i>:v<j>")``
    on the 32-bit ring; a key maps to the owner of the first point at or
    after its own hash (wrapping).  More vnodes → smoother expected
    split; the split is still *static*, which is the property the
    balancer comparison measures.
    """

    def __init__(self, n_shards: int, vnodes: int = 64):
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points = sorted(
            (_h32(f"shard{shard}:v{v}".encode()), shard)
            for shard in range(n_shards) for v in range(vnodes))
        self._hashes = [h for h, _ in points]
        self._owners = [shard for _, shard in points]

    def lookup(self, key: int) -> int:
        """The shard index owning ``key``."""
        h = _h32(key.to_bytes(8, "little", signed=True))
        i = bisect_right(self._hashes, h) % len(self._hashes)
        return self._owners[i]

    def successors(self, key: int, r: int) -> tuple[int, ...]:
        """The first ``r`` *distinct* shards at or after ``key`` on the ring.

        ``successors(key, 1) == (lookup(key),)`` — the primary — and each
        further entry is the next distinct owner walking clockwise: the
        classic replica-placement rule, so a key's backup set is stable
        under the same ring that places its primary.
        """
        if not 1 <= r <= self.n_shards:
            raise ValueError(
                f"r must be in [1, {self.n_shards}], got {r}")
        h = _h32(key.to_bytes(8, "little", signed=True))
        start = bisect_right(self._hashes, h)
        n = len(self._owners)
        replicas: list[int] = []
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in replicas:
                replicas.append(owner)
                if len(replicas) == r:
                    break
        return tuple(replicas)

    def __repr__(self) -> str:
        return f"<HashRing shards={self.n_shards} vnodes={self.vnodes}>"


class Balancer:
    """Client-side shard choice plus an in-flight view of each shard.

    ``pick`` chooses a shard for a request key; ``note_issued`` /
    ``note_resolved`` keep ``pending`` — this client's count of
    unresolved requests per shard — which :class:`LeastPending` routes
    on and every balancer exposes for tests.
    """

    name = "base"

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = n_shards
        self.pending = [0] * n_shards

    def pick(self, key: int) -> int:
        raise NotImplementedError

    def note_issued(self, shard: int) -> None:
        self.pending[shard] += 1

    def note_resolved(self, shard: int) -> None:
        if self.pending[shard] <= 0:
            raise RuntimeError(
                f"balancer resolved more requests than it issued on "
                f"shard {shard}")
        self.pending[shard] -= 1

    def __repr__(self) -> str:
        return f"<{type(self).__name__} shards={self.n_shards}>"


class ConsistentHash(Balancer):
    """``static``: the consistent-hash ring decides; load never does."""

    name = "static"

    def __init__(self, n_shards: int, vnodes: int = 64):
        super().__init__(n_shards)
        self.ring = HashRing(n_shards, vnodes)

    def pick(self, key: int) -> int:
        return self.ring.lookup(key)


class RoundRobin(Balancer):
    """``round_robin``: cycle through the shards, ignoring keys and load."""

    name = "round_robin"

    def __init__(self, n_shards: int):
        super().__init__(n_shards)
        self._next = 0

    def pick(self, key: int) -> int:
        shard = self._next
        self._next = (self._next + 1) % self.n_shards
        return shard


class LeastPending(Balancer):
    """``least_pending``: fewest in-flight from this client's view,
    ties to the lowest shard index (deterministic)."""

    name = "least_pending"

    def pick(self, key: int) -> int:
        return min(range(self.n_shards), key=lambda s: (self.pending[s], s))


def make_balancer(name: str, n_shards: int, vnodes: int = 64) -> Balancer:
    """Build the balancer called ``name`` (one of ``BALANCER_NAMES``)."""
    if name == "static":
        return ConsistentHash(n_shards, vnodes)
    if name == "round_robin":
        return RoundRobin(n_shards)
    if name == "least_pending":
        return LeastPending(n_shards)
    raise ValueError(
        f"balancer must be one of {BALANCER_NAMES}, got {name!r}")


class ShardedService:
    """N RpcServer shards on distinct nodes behind one client-facing API.

    Shard ``i`` runs on ``endpoints[i]``'s node with overload policy
    ``policies[i]`` (per-shard policies are first-class: a deployment
    can queue on its cache shards and shed on its compute shards).
    Queue-side stats are tagged with the shard index, so the aggregate
    :class:`~repro.workloads.stats.WorkloadStats` reports per-shard
    latency histograms and the imbalance ratio without any extra plumbing.
    """

    def __init__(self, endpoints: Sequence[RpcEndpoint], stats: WorkloadStats,
                 *, workers: int = 2, queue_capacity: int = 16,
                 policies: Optional[Sequence[str]] = None,
                 resp_bytes: int = 64,
                 extract_budget: Optional[int] = None):
        if not endpoints:
            raise ValueError("a ShardedService needs at least one shard")
        nodes = [ep.node.node_id for ep in endpoints]
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"shards must live on distinct nodes, got {nodes}")
        if policies is None:
            policies = ["queue"] * len(endpoints)
        if len(policies) != len(endpoints):
            raise ValueError(
                f"{len(policies)} policies for {len(endpoints)} shards")
        for policy in policies:
            if policy not in VALID_POLICIES:
                raise ValueError(f"policy must be one of {VALID_POLICIES}, "
                                 f"got {policy!r}")
        self.shard_nodes = nodes
        self.servers = [
            RpcServer(ep, stats, workers=workers,
                      queue_capacity=queue_capacity, policy=policies[i],
                      resp_bytes=resp_bytes, extract_budget=extract_budget,
                      shard=i)
            for i, ep in enumerate(endpoints)
        ]

    @property
    def n_shards(self) -> int:
        return len(self.servers)

    def start(self) -> None:
        """Start every shard's pump and workers."""
        for server in self.servers:
            server.start()

    def __repr__(self) -> str:
        return (f"<ShardedService shards={self.n_shards} "
                f"nodes={self.shard_nodes}>")


class ShardDirectory:
    """Pure-data stand-in for a :class:`ShardedService` on the client side.

    A :class:`ShardedClient` only ever reads ``shard_nodes`` and
    ``n_shards`` from its service — routing is client-side by design — so
    a directory of shard placements is enough to build clients in a
    process that owns none of the server nodes (the partitioned runner's
    workers).  Shard ``i`` lives on node ``shard_nodes[i]``.
    """

    def __init__(self, shard_nodes: Sequence[int]):
        if not shard_nodes:
            raise ValueError("a ShardDirectory needs at least one shard")
        if len(set(shard_nodes)) != len(shard_nodes):
            raise ValueError(
                f"shards must live on distinct nodes, got {list(shard_nodes)}")
        self.shard_nodes = list(shard_nodes)

    @property
    def n_shards(self) -> int:
        return len(self.shard_nodes)

    def __repr__(self) -> str:
        return f"<ShardDirectory nodes={self.shard_nodes}>"


class ShardedClient(RpcClient):
    """An :class:`~repro.workloads.rpc.RpcClient` that routes each request
    to a shard through its balancer.

    Per request: draw a key, ``pick`` a shard, count it in-flight, and
    tag the send so completions land in that shard's histogram.  The
    endpoint's ``on_resolved`` callback returns the in-flight credit
    exactly once per request — on response *or* abandonment — which is
    what keeps a ``least_pending`` view truthful under drops.
    """

    def __init__(self, endpoint: RpcEndpoint,
                 service: "ShardedService | ShardDirectory",
                 balancer: Balancer, keys: Iterator[int], *,
                 arrivals: ArrivalSpec, seed: int, n_requests: int,
                 req_bytes: int = 64, work_ns: int = 0,
                 deadline_ns: int = 0,
                 abandon_after_ns: Optional[int] = None,
                 name: str = "client"):
        if balancer.n_shards != service.n_shards:
            raise ValueError(
                f"balancer covers {balancer.n_shards} shards, service has "
                f"{service.n_shards}")
        super().__init__(endpoint, service.shard_nodes[0], arrivals=arrivals,
                         seed=seed, n_requests=n_requests,
                         req_bytes=req_bytes, work_ns=work_ns,
                         deadline_ns=deadline_ns,
                         abandon_after_ns=abandon_after_ns, name=name)
        self.service = service
        self.balancer = balancer
        self._keys = keys
        # Fail-loud registration: a second client (or a prober) sharing
        # this endpoint would silently corrupt this balancer's in-flight
        # view if it could replace the callback.
        endpoint.set_on_resolved(self._on_resolved)

    def _issue(self, deadline_ns: int,
               t_intended: Optional[int] = None) -> Generator:
        key = next(self._keys)
        shard = self.balancer.pick(key)
        self.balancer.note_issued(shard)
        return (yield from self.endpoint.send_request(
            self.service.shard_nodes[shard], self.work_ns, self.req_bytes,
            deadline_ns=deadline_ns, t_intended=t_intended, shard=shard,
            key=key))

    def _on_resolved(self, req_id: int, shard: Optional[int]) -> None:
        if shard is not None:
            self.balancer.note_resolved(shard)

    def __repr__(self) -> str:
        return (f"<ShardedClient {self.name!r} "
                f"node={self.endpoint.node.node_id} "
                f"balancer={self.balancer.name} n={self.n_requests}>")
