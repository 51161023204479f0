"""Stall detection measured in sim time, even when a fault slows the CPU.

Regression for the backoff-counter bug: the MPI engine's blocking loops,
``Shmem._await`` and FM's credit spin (``FmEndpoint.acquire_credit``)
used to accumulate only their nominal poll/backoff time, so a ``CpuSlow``
episode — which inflates the sim time spent *inside* every poll or
``progress()`` pass — could postpone the ``stall_limit_ns`` check almost
arbitrarily.  The clocks now compare ``env.now`` against the loop's last
progress point, so detection fires within the limit (plus one idle-wait
cap and one progress pass) no matter how slow the host runs.

The sockets, Winsock and RDMA completion waits fail loudly the same way,
and a wait that keeps making progress never trips the clock, however
long the whole call takes.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.common import FmParams, FmStalledError
from repro.core.rdma import RdmaEndpoint, RdmaStalledError
from repro.core.rdma.api import CQ_STALL_LIMIT_NS
from repro.faults import FaultPlan
from repro.faults.plan import CpuSlow
from repro.hardware.memory import Buffer
from repro.upper.mpi import build_mpi_world
from repro.upper.mpi.status import MpiError
from repro.upper.shmem import Shmem, ShmemError
from repro.upper.sockets import SocketError, SocketStack, Wsa

STALL_LIMIT_NS = 300_000
#: Detection slop: one capped idle wait plus one (slowed) progress pass.
#: Well under the old behaviour, which overshot by ~the slowdown factor.
SLOP_NS = 150_000


def make_cluster() -> Cluster:
    return Cluster(2, machine=PPRO_FM2, fm_version=2,
                   fm_params=FmParams(packet_payload=1024,
                                      stall_limit_ns=STALL_LIMIT_NS))


def slow_node(cluster: Cluster, node: int, factor: float = 50.0) -> None:
    cluster.inject_faults(FaultPlan(seed=1, episodes=(
        CpuSlow(node=node, factor=factor),)))


class TestMpiStallUnderCpuSlow:
    def test_starved_recv_fails_within_the_limit(self):
        cluster = make_cluster()
        slow_node(cluster, node=1)
        comms = build_mpi_world(cluster)

        def starved(node):
            yield from comms[1].recv(0, 9)

        with pytest.raises(MpiError, match="no progress"):
            cluster.run([None, starved])
        assert cluster.now <= STALL_LIMIT_NS + SLOP_NS

    def test_detection_time_matches_the_unfaulted_run(self):
        # The whole point: a 50x CPU slowdown must not stretch the
        # detection deadline by 50x.  Both runs end within the same
        # sim-time budget.
        def starved_run(faulted: bool) -> int:
            cluster = make_cluster()
            if faulted:
                slow_node(cluster, node=1)
            comms = build_mpi_world(cluster)

            def starved(node):
                yield from comms[1].recv(0, 9)

            with pytest.raises(MpiError):
                cluster.run([None, starved])
            return cluster.now

        plain, faulted = starved_run(False), starved_run(True)
        assert plain <= STALL_LIMIT_NS + SLOP_NS
        assert faulted <= STALL_LIMIT_NS + SLOP_NS

    def test_cts_wait_also_detects(self):
        # Rendezvous sender whose receiver never posts: the CTS wait loop
        # shares the same clock discipline.
        cluster = make_cluster()
        slow_node(cluster, node=0)
        comms = build_mpi_world(cluster)

        def sender(node):
            yield from comms[0].send(bytes(64 * 1024), 1, 5)

        def mute(node):
            # Never posts, never progresses past the handshake.
            yield cluster.env.timeout(10 * STALL_LIMIT_NS)

        with pytest.raises(MpiError, match="CTS"):
            cluster.run([sender, mute])
        # The slowed send path runs *before* the wait-loop clock starts, so
        # the bound is looser here — but nowhere near the old behaviour,
        # where a 50x slowdown stretched detection towards 50x the limit.
        assert cluster.now <= 2 * STALL_LIMIT_NS


class TestShmemStallUnderCpuSlow:
    def test_unserved_get_fails_within_the_limit(self):
        cluster = make_cluster()
        slow_node(cluster, node=0)
        shmems = [Shmem(node, 2) for node in cluster.nodes]
        for sh in shmems:
            sh.register_region(1, 256)

        def pe0(node):
            # PE 1 runs no program, so nobody ever serves the get.
            yield from shmems[0].get(1, 1, 0, 64)

        with pytest.raises(ShmemError, match="stalled"):
            cluster.run([pe0, None])
        # As in the CTS case, the slowed GET send precedes the wait-loop
        # clock; the bound stays a small multiple of the limit rather than
        # a multiple of the slowdown factor.
        assert cluster.now <= 2 * STALL_LIMIT_NS


class TestFmCreditStallUnderCpuSlow:
    def test_starved_sender_fails_within_the_limit(self):
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2,
                          fm_params=FmParams(packet_payload=1024,
                                             credits_per_peer=2,
                                             credit_batch=1,
                                             stall_limit_ns=STALL_LIMIT_NS))
        factor = 50
        slow_node(cluster, node=0, factor=factor)
        hid = {n.fm.register_handler(lambda *a: None)
               for n in cluster.nodes}.pop()
        # One pass of the credit spin: a poll, stretched by the slowdown.
        one_pass_ns = cluster.nodes[0].cpu.params.poll_ns * factor
        send_started = []

        def sender(node):
            buf = node.buffer(64)
            for _ in range(10):   # node 1 never extracts: credits run out
                send_started.append(node.env.now)
                yield from node.fm.send_buffer(1, hid, buf, 64)

        with pytest.raises(FmStalledError, match="deadlock") as failure:
            cluster.run([sender, None])
        waited = int(failure.value.args[0].split("stalled ")[1].split()[0])
        assert STALL_LIMIT_NS < waited <= STALL_LIMIT_NS + one_pass_ns
        # The reported wait is the real one: the stalled send's slowed
        # pre-credit work comes on top, but the whole send stays a small
        # multiple of the limit, not a multiple of the slowdown factor.
        stalled_send_ns = cluster.now - send_started[-1]
        assert waited < stalled_send_ns <= 2 * STALL_LIMIT_NS


def connected_pair(cluster: Cluster, server_then, client_then) -> None:
    """Connect node 1 to node 0 over Sockets-FM, then run
    ``server_then(sock)`` on node 0 and ``client_then(sock)`` on node 1."""
    stacks = [SocketStack(node) for node in cluster.nodes]

    def server(node):
        stacks[0].listen()
        sock = yield from stacks[0].accept()
        yield from server_then(sock)

    def client(node):
        sock = yield from stacks[1].connect(0)
        yield from client_then(sock)

    cluster.run([server, client])


def silent(sock):
    yield sock.stack.env.timeout(10 * STALL_LIMIT_NS)


class TestSocketStallClock:
    def test_streaming_recv_into_outlasts_the_limit(self):
        # The stall clock bounds time *without progress*: a posted receive
        # that keeps filling must complete even though the whole transfer
        # takes many times the limit.
        cluster = make_cluster()
        payload = bytes(i % 251 for i in range(256 * 1024))
        dest = Buffer(len(payload))

        def sender(sock):
            yield from sock.send(payload)

        def receiver(sock):
            yield from sock.recv_into(dest, 0, len(payload))

        connected_pair(cluster, sender, receiver)
        assert dest.read() == payload
        assert cluster.now > 2 * STALL_LIMIT_NS

    def test_recv_from_a_silent_peer_fails_within_the_limit(self):
        cluster = make_cluster()
        started = []

        def receiver(sock):
            started.append(cluster.now)
            yield from sock.recv(64)

        with pytest.raises(SocketError, match="recv stalled"):
            connected_pair(cluster, silent, receiver)
        assert STALL_LIMIT_NS < cluster.now - started[0] \
            <= STALL_LIMIT_NS + SLOP_NS

    def test_overlapped_recv_from_a_silent_peer_fails_within_the_limit(self):
        cluster = make_cluster()
        started = []

        def receiver(sock):
            wsa = Wsa(sock.stack)
            operation = wsa.recv(sock, Buffer(64), 0, 64)
            started.append(cluster.now)
            yield from wsa.get_overlapped_result(operation)

        with pytest.raises(SocketError, match="stalled"):
            connected_pair(cluster, silent, receiver)
        assert STALL_LIMIT_NS < cluster.now - started[0] \
            <= STALL_LIMIT_NS + SLOP_NS


class TestRdmaStallClock:
    def test_get_from_an_unregistered_rkey_fails_within_the_limit(self):
        cluster = make_cluster()
        endpoint = RdmaEndpoint(cluster.node(0))

        def initiator(node):
            # Node 1 never registers rkey 99: its NIC drops the read
            # request and no completion ever arrives.
            yield from endpoint.rdma_get(1, 99, node.buffer(64), 64)

        with pytest.raises(RdmaStalledError, match="dead peer"):
            cluster.run([initiator, None])
        assert cluster.node(1).nic.rdma_unmatched == 1
        assert CQ_STALL_LIMIT_NS < cluster.now <= CQ_STALL_LIMIT_NS + SLOP_NS
