"""Network topologies: hosts and switches as a graph, with source routes.

A :class:`Topology` is a simple undirected graph of host and switch nodes.
Source routes are shortest paths found by a bidirectional breadth-first
search, expressed as the list of *switch output ports* along the path —
exactly what a Myrinet source route is.  Builders are provided for the
configurations used in the paper's environment (a single crossbar) plus
larger fabrics for scaling studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

HostId = int
#: Graph node naming: hosts are ("h", i), switches are ("s", j).
GraphNode = tuple[str, int]


def host_node(i: int) -> GraphNode:
    """Graph node id of host ``i``."""
    return ("h", i)


def switch_node(j: int) -> GraphNode:
    """Graph node id of switch ``j``."""
    return ("s", j)


class Graph:
    """A simple undirected graph as adjacency dicts in insertion order.

    A node's neighbours iterate in the order their edges were first added,
    which is what makes :func:`shortest_path` deterministic for a fixed
    build order.
    """

    def __init__(self) -> None:
        self._adj: dict[GraphNode, dict[GraphNode, None]] = {}

    def add_node(self, node: GraphNode) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, u: GraphNode, v: GraphNode) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u} in a simple graph")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = None
        self._adj[v][u] = None

    def neighbors(self, node: GraphNode) -> Iterator[GraphNode]:
        return iter(self._adj[node])

    def degree(self, node: GraphNode) -> int:
        return len(self._adj[node])

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)


def is_connected(graph: Graph) -> bool:
    """True when every node is reachable from every other (and the graph
    has at least one node)."""
    start = next(iter(graph), None)
    if start is None:
        return False
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbor in graph.neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(graph)


def shortest_path(graph: Graph, source: GraphNode,
                  target: GraphNode) -> list[GraphNode]:
    """A shortest ``source`` -> ``target`` path by bidirectional BFS.

    The search expands whichever fringe is smaller (the forward one on a
    tie), one whole level at a time, visits neighbours in adjacency order
    and stops at the first node both searches have reached.  These are
    the rules of networkx's ``bidirectional_shortest_path``, so the
    routes, ties between equal-length paths included, are the ones that
    library returns for the same build order.
    """
    pred, succ, meet = _bidirectional_pred_succ(graph, source, target)
    path: list[GraphNode] = []
    node: GraphNode | None = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path


def _bidirectional_pred_succ(graph: Graph, source: GraphNode,
                             target: GraphNode) -> tuple[dict, dict, GraphNode]:
    """Search from both ends until the two searches meet.  Returns the
    predecessor map back to ``source``, the successor map on to
    ``target`` and the meeting node."""
    pred: dict[GraphNode, GraphNode | None] = {source: None}
    succ: dict[GraphNode, GraphNode | None] = {target: None}
    if source == target:
        return pred, succ, source
    forward_fringe, reverse_fringe = [source], [target]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            this_level, forward_fringe = forward_fringe, []
            for v in this_level:
                for w in graph.neighbors(v):
                    if w not in pred:
                        forward_fringe.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            this_level, reverse_fringe = reverse_fringe, []
            for v in this_level:
                for w in graph.neighbors(v):
                    if w not in succ:
                        succ[w] = v
                        reverse_fringe.append(w)
                    if w in pred:
                        return pred, succ, w
    raise ValueError(f"no path between {source} and {target}")


@dataclass
class Topology:
    """An undirected graph of hosts and switches.

    Port numbering: the neighbours of each switch, sorted, define its port
    indices.  Hosts have exactly one port (their NIC).
    """

    graph: Graph
    n_hosts: int
    n_switches: int

    def __post_init__(self) -> None:
        for i in range(self.n_hosts):
            if host_node(i) not in self.graph:
                raise ValueError(f"host {i} missing from graph")
            if self.graph.degree(host_node(i)) != 1:
                raise ValueError(
                    f"host {i} must have exactly one link, has "
                    f"{self.graph.degree(host_node(i))}"
                )
        for j in range(self.n_switches):
            if switch_node(j) not in self.graph:
                raise ValueError(f"switch {j} missing from graph")
        if not is_connected(self.graph):
            raise ValueError("topology must be connected")

    # -- port numbering --------------------------------------------------------
    def switch_neighbors(self, j: int) -> list[GraphNode]:
        """Neighbours of switch ``j`` in port order."""
        return sorted(self.graph.neighbors(switch_node(j)))

    def switch_port_of(self, j: int, neighbor: GraphNode) -> int:
        """The port index on switch ``j`` that faces ``neighbor``."""
        neighbors = self.switch_neighbors(j)
        try:
            return neighbors.index(neighbor)
        except ValueError:
            raise ValueError(f"{neighbor} is not adjacent to switch {j}") from None

    def switch_of(self, host: int) -> int:
        """The switch that host ``host``'s one link goes to."""
        (neighbor,) = self.graph.neighbors(host_node(host))
        kind, j = neighbor
        if kind != "s":
            raise ValueError(f"host {host} is not connected to a switch")
        return j

    def switch_degree(self, j: int) -> int:
        return self.graph.degree(switch_node(j))

    # -- routing -----------------------------------------------------------------
    def path(self, src_host: int, dst_host: int) -> list[GraphNode]:
        """Graph nodes on the (deterministic) shortest path between hosts."""
        self._check_host(src_host)
        self._check_host(dst_host)
        # Ties between equal-length paths (a fat tree's spines) are broken
        # by the builder's edge order; see shortest_path.
        return shortest_path(self.graph, host_node(src_host),
                             host_node(dst_host))

    def source_route(self, src_host: int, dst_host: int) -> list[int]:
        """Output-port indices, one per switch traversed, src -> dst."""
        if src_host == dst_host:
            return []
        route: list[int] = []
        path = self.path(src_host, dst_host)
        for k, node in enumerate(path):
            kind, idx = node
            if kind != "s":
                continue
            next_node = path[k + 1]
            route.append(self.switch_port_of(idx, next_node))
        return route

    def hop_count(self, src_host: int, dst_host: int) -> int:
        """Number of links traversed between two hosts."""
        if src_host == dst_host:
            return 0
        return len(self.path(src_host, dst_host)) - 1

    def _check_host(self, i: int) -> None:
        if not 0 <= i < self.n_hosts:
            raise ValueError(f"host id {i} out of range [0, {self.n_hosts})")


# -- builders ---------------------------------------------------------------------

def single_switch(n_hosts: int) -> Topology:
    """All hosts on one crossbar — the paper's testbed configuration."""
    if n_hosts < 2:
        raise ValueError(f"need at least 2 hosts, got {n_hosts}")
    g = Graph()
    g.add_node(switch_node(0))
    for i in range(n_hosts):
        g.add_edge(host_node(i), switch_node(0))
    return Topology(g, n_hosts=n_hosts, n_switches=1)


def switch_chain(n_hosts: int, hosts_per_switch: int = 4) -> Topology:
    """Switches in a line, hosts distributed round the chain."""
    if n_hosts < 2:
        raise ValueError(f"need at least 2 hosts, got {n_hosts}")
    if hosts_per_switch < 1:
        raise ValueError("hosts_per_switch must be >= 1")
    n_switches = -(-n_hosts // hosts_per_switch)
    g = Graph()
    for j in range(n_switches):
        g.add_node(switch_node(j))
        if j > 0:
            g.add_edge(switch_node(j - 1), switch_node(j))
    for i in range(n_hosts):
        g.add_edge(host_node(i), switch_node(i // hosts_per_switch))
    return Topology(g, n_hosts=n_hosts, n_switches=n_switches)


def switch_mesh(n_hosts: int, n_groups: int) -> Topology:
    """``n_groups`` crossbars in a full mesh, hosts split evenly across them.

    Host ``i`` hangs off switch ``i // (n_hosts // n_groups)``; every
    switch pair is joined by one trunk link, so any host pair is at most
    three hops apart (host -> switch -> switch -> host).  This is the
    partitionable topology the parallel-simulation mode cuts along: each
    group (one switch plus its hosts) is a natural partition unit and the
    trunk links are the only cross-group edges, so the minimum trunk
    latency bounds the conservative lookahead window.
    """
    if n_groups < 1:
        raise ValueError(f"need at least 1 group, got {n_groups}")
    if n_hosts < 2:
        raise ValueError(f"need at least 2 hosts, got {n_hosts}")
    if n_hosts % n_groups:
        raise ValueError(
            f"{n_hosts} hosts do not split evenly over {n_groups} groups")
    per_group = n_hosts // n_groups
    g = Graph()
    for j in range(n_groups):
        g.add_node(switch_node(j))
        for k in range(j):
            g.add_edge(switch_node(k), switch_node(j))
    for i in range(n_hosts):
        g.add_edge(host_node(i), switch_node(i // per_group))
    return Topology(g, n_hosts=n_hosts, n_switches=n_groups)


def fat_tree_2level(n_leaf_switches: int, hosts_per_leaf: int, n_spines: int = 2) -> Topology:
    """Two-level leaf/spine fabric (a small Clos, as larger Myrinet sites used)."""
    if n_leaf_switches < 1 or hosts_per_leaf < 1 or n_spines < 1:
        raise ValueError("all fat-tree parameters must be >= 1")
    n_hosts = n_leaf_switches * hosts_per_leaf
    if n_hosts < 2:
        raise ValueError("fat tree needs at least 2 hosts")
    g = Graph()
    for leaf in range(n_leaf_switches):
        for spine in range(n_spines):
            g.add_edge(switch_node(leaf), switch_node(n_leaf_switches + spine))
    for i in range(n_hosts):
        g.add_edge(host_node(i), switch_node(i // hosts_per_leaf))
    return Topology(g, n_hosts=n_hosts, n_switches=n_leaf_switches + n_spines)
