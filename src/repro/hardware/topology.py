"""Network topologies: hosts and switches as a graph, with source routes.

A :class:`Topology` is an undirected multigraph of host and switch nodes.
Source routes are computed with networkx shortest paths and expressed as the
list of *switch output ports* along the path — exactly what a Myrinet source
route is.  Builders are provided for the configurations used in the paper's
environment (a single crossbar) plus larger fabrics for scaling studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

HostId = int
#: Graph node naming: hosts are ("h", i), switches are ("s", j).
GraphNode = tuple[str, int]


def host_node(i: int) -> GraphNode:
    """Graph node id of host ``i``."""
    return ("h", i)


def switch_node(j: int) -> GraphNode:
    """Graph node id of switch ``j``."""
    return ("s", j)


def edge_id(src: GraphNode, dst: GraphNode) -> str:
    """Stable textual id of one directed edge: names its link (and so
    seeds the link's RNG)."""
    return f"{src[0]}{src[1]}->{dst[0]}{dst[1]}"


@dataclass
class Topology:
    """An undirected graph of hosts and switches.

    Port numbering: the neighbours of each switch, sorted, define its port
    indices.  Hosts have exactly one port (their NIC).
    """

    graph: nx.Graph
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
        if not nx.is_connected(self.graph):
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

    def switch_degree(self, j: int) -> int:
        return self.graph.degree(switch_node(j))

    # -- routing -----------------------------------------------------------------
    def path(self, src_host: int, dst_host: int) -> list[GraphNode]:
        """Graph nodes on the (deterministic) shortest path between hosts."""
        self._check_host(src_host)
        self._check_host(dst_host)
        # nx shortest_path is deterministic for a fixed graph build order;
        # we additionally break ties by preferring lexicographically smaller
        # neighbour sequences, via the sorted adjacency wrapper below.
        return nx.shortest_path(self.graph, host_node(src_host), host_node(dst_host))

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
    g = nx.Graph()
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
    g = nx.Graph()
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
    three hops apart (host -> switch -> switch -> host).  The trunks are
    the only cross-group edges; :class:`~repro.hardware.fabric.Fabric`
    builds them with its ``trunk_params``, so a grouped scenario can give
    the inter-crossbar cables their own latency.
    """
    if n_groups < 1:
        raise ValueError(f"need at least 1 group, got {n_groups}")
    if n_hosts < 2:
        raise ValueError(f"need at least 2 hosts, got {n_hosts}")
    if n_hosts % n_groups:
        raise ValueError(
            f"{n_hosts} hosts do not split evenly over {n_groups} groups")
    per_group = n_hosts // n_groups
    g = nx.Graph()
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
    g = nx.Graph()
    for leaf in range(n_leaf_switches):
        for spine in range(n_spines):
            g.add_edge(switch_node(leaf), switch_node(n_leaf_switches + spine))
    for i in range(n_hosts):
        g.add_edge(host_node(i), switch_node(i // hosts_per_leaf))
    return Topology(g, n_hosts=n_hosts, n_switches=n_leaf_switches + n_spines)
