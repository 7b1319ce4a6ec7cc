"""Network topologies: hosts and switches as a graph, with source routes.

A :class:`Topology` is an undirected graph of host and switch nodes.
Source routes are breadth-first shortest paths expressed as the list of
*switch output ports* along the path — exactly what a Myrinet source route
is.  Builders are provided for the configurations used in the paper's
environment (a single crossbar) plus larger fabrics for scaling studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

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
    what a :class:`~repro.faults.LinkFault` pattern matches)."""
    return f"{src[0]}{src[1]}->{dst[0]}{dst[1]}"


class Graph:
    """Undirected graph; ``adj[u]`` holds ``u``'s neighbours in the order
    their edges were added (routes depend on that order, see
    :func:`shortest_path`).  The subset of ``networkx.Graph`` that
    :class:`Topology` reads, so either can back one."""

    def __init__(self) -> None:
        self.adj: dict[GraphNode, dict[GraphNode, None]] = {}

    def add_node(self, u: GraphNode) -> None:
        self.adj.setdefault(u, {})

    def add_edge(self, u: GraphNode, v: GraphNode) -> None:
        self.adj.setdefault(u, {})[v] = None
        self.adj.setdefault(v, {})[u] = None

    def neighbors(self, u: GraphNode) -> Iterator[GraphNode]:
        return iter(self.adj[u])

    def degree(self, u: GraphNode) -> int:
        return len(self.adj[u])


def _expand(adj, level, seen, other):
    """One BFS level: the next fringe, and the first node reached that the
    ``other`` search has seen too (``None`` if the searches have not met)."""
    fringe = []
    for v in level:
        for w in adj[v]:
            if w not in seen:
                seen[w] = v
                fringe.append(w)
            if w in other:
                return fringe, w
    return fringe, None


def shortest_path(adj, source: GraphNode, target: GraphNode) -> list[GraphNode]:
    """A shortest ``source`` -> ``target`` path by bidirectional BFS.

    Among equal-length paths (a fat tree has one per spine) the choice is
    fixed by three rules: expand the smaller fringe, the forward one on a
    tie; visit neighbours in adjacency order; stop at the first node both
    searches have seen.  These are ``networkx.shortest_path``'s rules, so
    the routes — and every simulated number downstream of them — are the
    ones networkx gives (``tests/hardware/test_topology.py`` holds it to
    that on every host pair of every builder).
    """
    if source == target:
        return [source]
    # Node -> the node it was reached from, one map per search direction.
    pred: dict[GraphNode, Any] = {source: None}
    succ: dict[GraphNode, Any] = {target: None}
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            forward, meet = _expand(adj, forward, pred, succ)
        else:
            reverse, meet = _expand(adj, reverse, succ, pred)
        if meet is not None:
            break
    else:
        raise ValueError(f"no path between {source} and {target}")
    path = [meet]
    while (node := pred[path[-1]]) is not None:
        path.append(node)
    path.reverse()
    while (node := succ[path[-1]]) is not None:
        path.append(node)
    return path


def is_connected(adj) -> bool:
    """Whether every node is reachable from the first."""
    level = [next(iter(adj))]
    seen = {level[0]: None}
    while level:
        level, _ = _expand(adj, level, seen, ())
    return len(seen) == len(adj)


@dataclass
class Topology:
    """An undirected graph of hosts and switches.

    Port numbering: the neighbours of each switch, sorted, define its port
    indices.  Hosts have exactly one port (their NIC).  ``graph`` is a
    :class:`Graph` or anything else exposing ``adj`` / ``neighbors`` /
    ``degree`` the same way (a ``networkx.Graph`` does).
    """

    graph: Any
    n_hosts: int
    n_switches: int

    def __post_init__(self) -> None:
        for i in range(self.n_hosts):
            if host_node(i) not in self.graph.adj:
                raise ValueError(f"host {i} missing from graph")
            if self.graph.degree(host_node(i)) != 1:
                raise ValueError(
                    f"host {i} must have exactly one link, has "
                    f"{self.graph.degree(host_node(i))}"
                )
        for j in range(self.n_switches):
            if switch_node(j) not in self.graph.adj:
                raise ValueError(f"switch {j} missing from graph")
        if not is_connected(self.graph.adj):
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
        return shortest_path(self.graph.adj, host_node(src_host), host_node(dst_host))

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
