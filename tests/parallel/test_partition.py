"""Partition plans, boundary capture, and the mesh they cut along."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.hardware.params import LinkParams
from repro.hardware.topology import switch_mesh
from repro.parallel.partition import (BoundaryLink, PartitionFabric,
                                      PartitionPlan, edge_id)
from repro.simkernel.env import Environment
from repro.workloads.runner import MACHINES


MACHINE = MACHINES["ppro"]
LINK = MACHINE.link
TRUNK = LinkParams(bandwidth=LINK.bandwidth, propagation_ns=8_000,
                   slots=LINK.slots)


def plan(n_hosts=8, n_groups=4, n_partitions=2, trunk=TRUNK):
    return PartitionPlan(switch_mesh(n_hosts, n_groups), n_partitions,
                         LINK, trunk)


class TestSwitchMesh:
    def test_shape(self):
        topo = switch_mesh(8, 4)
        assert topo.n_hosts == 8
        assert topo.n_switches == 4
        # Full mesh: every switch pair joined, hosts split 2 per switch.
        for j in range(4):
            neighbors = list(topo.switch_neighbors(j))
            switches = [n for n in neighbors if n[0] == "s"]
            hosts = [n for n in neighbors if n[0] == "h"]
            assert len(switches) == 3
            assert sorted(n[1] for n in hosts) == [2 * j, 2 * j + 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            switch_mesh(8, 0)
        with pytest.raises(ValueError):
            switch_mesh(1, 1)
        with pytest.raises(ValueError):
            switch_mesh(9, 2)   # uneven split


class TestPartitionPlan:
    def test_contiguous_switch_blocks_and_hosts_follow(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=2)
        assert [p.switch_partition(j) for j in range(4)] == [0, 0, 1, 1]
        assert p.hosts_of(0) == [0, 1, 2, 3]
        assert p.hosts_of(1) == [4, 5, 6, 7]

    def test_cut_edges_are_cross_partition_trunks_only(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=2)
        # Mesh over {0,1} x {2,3}: 4 undirected cuts = 8 directed edges;
        # intra-partition trunks (0-1, 2-3) are not cut.
        assert len(p.cut_edges) == 8
        assert edge_id(("s", 0), ("s", 2)) in p.cut_edges
        assert edge_id(("s", 0), ("s", 1)) not in p.cut_edges
        for eid, (src, dst) in p.cut_edges.items():
            assert p.owner(src) != p.owner(dst)
            assert p.dest_partition(eid) == p.owner(dst)

    def test_lookahead_is_min_cut_propagation(self):
        assert plan().lookahead_ns == TRUNK.propagation_ns
        assert plan(n_partitions=1).lookahead_ns == 0   # no cuts

    def test_fully_partitioned_mesh(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=4)
        # Every trunk is now a cut: 6 undirected = 12 directed edges.
        assert len(p.cut_edges) == 12
        assert p.hosts_of(3) == [6, 7]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan(n_partitions=0)
        with pytest.raises(ValueError):
            plan(n_groups=4, n_partitions=3)   # 4 switches over 3 parts
        with pytest.raises(ValueError):
            # Zero-latency trunks leave no lookahead window.
            plan(trunk=LinkParams(bandwidth=LINK.bandwidth,
                                  propagation_ns=1, slots=LINK.slots))

    def test_plans_are_identical_across_derivations(self):
        a, b = plan(), plan()
        assert a.cut_edges == b.cut_edges
        assert a.lookahead_ns == b.lookahead_ns


class TestPartitionBuild:
    """A partition worker's share of the machine: the serial ``Cluster``
    and ``Fabric`` restricted to what the plan gives the partition."""

    def test_cluster_builds_exactly_the_partitions_hosts(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=2)
        cluster = Cluster(8, MACHINE, plan=p, partition=1)
        assert [node.node_id for node in cluster.nodes] == p.hosts_of(1)
        assert cluster.node(5).node_id == 5      # ids stay global
        assert cluster.n_nodes == 8
        with pytest.raises(KeyError):
            cluster.node(0)                       # foreign host

    def test_foreign_switches_are_none_and_cuts_are_boundary_links(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=2)
        fabric = Cluster(8, MACHINE, plan=p, partition=0).fabric
        assert [sw is not None for sw in fabric.switches] == [
            True, True, False, False]
        outbound = sorted(eid for eid, (src, _dst) in p.cut_edges.items()
                          if p.owner(src) == 0)
        assert sorted(link.edge_id for link in fabric.links.values()
                      if isinstance(link, BoundaryLink)) == outbound

    def test_attaching_a_foreign_host_raises(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=2)
        env = Environment()
        fabric = PartitionFabric(env, p, 0, MACHINE.switch)
        with pytest.raises(ValueError, match="host 4"):
            fabric.attach(4, Node(env, 4, MACHINE).nic)

    def test_start_needs_only_the_owned_hosts(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=2)
        env = Environment()
        fabric = PartitionFabric(env, p, 1, MACHINE.switch)
        owned = p.hosts_of(1)
        for i in owned[:-1]:
            fabric.attach(i, Node(env, i, MACHINE).nic)
        with pytest.raises(RuntimeError, match=f"\\[{owned[-1]}\\]"):
            fabric.start()
        fabric.attach(owned[-1], Node(env, owned[-1], MACHINE).nic)
        fabric.start()                            # hosts 0..3 never attached

    def test_validation(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=2)
        with pytest.raises(ValueError, match="out of range"):
            Cluster(8, MACHINE, plan=p, partition=2)
        with pytest.raises(ValueError, match="from the plan"):
            Cluster(8, MACHINE, topology=p.topology, plan=p, partition=0)
