"""Topologies: builders, port numbering, source routes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import topology
from repro.hardware.topology import (
    Topology,
    fat_tree_2level,
    host_node,
    single_switch,
    switch_chain,
    switch_mesh,
    switch_node,
)


@pytest.fixture
def nx():
    """networkx is a test-only dependency: the oracle routes are held to,
    and a second graph type for ``Topology`` to accept."""
    return pytest.importorskip("networkx")


class TestBuilders:
    def test_single_switch_shape(self):
        topo = single_switch(4)
        assert topo.n_hosts == 4
        assert topo.n_switches == 1
        assert topo.switch_degree(0) == 4

    def test_single_switch_minimum(self):
        with pytest.raises(ValueError):
            single_switch(1)

    def test_chain_switch_count(self):
        topo = switch_chain(10, hosts_per_switch=4)
        assert topo.n_switches == 3
        assert topo.n_hosts == 10

    def test_fat_tree_shape(self):
        topo = fat_tree_2level(n_leaf_switches=3, hosts_per_leaf=2, n_spines=2)
        assert topo.n_hosts == 6
        assert topo.n_switches == 5
        # Each leaf connects its hosts plus every spine.
        assert topo.switch_degree(0) == 2 + 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            switch_chain(1)
        with pytest.raises(ValueError):
            fat_tree_2level(0, 2)


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


class TestValidation:
    def test_host_needs_one_link(self, nx):
        g = nx.Graph()
        g.add_edge(host_node(0), switch_node(0))
        g.add_edge(host_node(0), switch_node(1))
        g.add_edge(host_node(1), switch_node(0))
        g.add_edge(switch_node(0), switch_node(1))
        with pytest.raises(ValueError, match="exactly one link"):
            Topology(g, n_hosts=2, n_switches=2)

    def test_disconnected_rejected(self, nx):
        g = nx.Graph()
        g.add_edge(host_node(0), switch_node(0))
        g.add_edge(host_node(1), switch_node(1))
        with pytest.raises(ValueError, match="connected"):
            Topology(g, n_hosts=2, n_switches=2)

    def test_missing_host_rejected(self, nx):
        g = nx.Graph()
        g.add_edge(host_node(0), switch_node(0))
        with pytest.raises(ValueError, match="missing"):
            Topology(g, n_hosts=2, n_switches=1)


class TestRoutes:
    def test_same_host_empty_route(self):
        topo = single_switch(3)
        assert topo.source_route(1, 1) == []
        assert topo.hop_count(1, 1) == 0

    def test_single_switch_route_length(self):
        topo = single_switch(4)
        route = topo.source_route(0, 3)
        assert len(route) == 1
        assert topo.hop_count(0, 3) == 2

    def test_route_port_points_at_destination(self):
        topo = single_switch(4)
        route = topo.source_route(0, 3)
        neighbors = topo.switch_neighbors(0)
        assert neighbors[route[0]] == host_node(3)

    def test_chain_route_crosses_switches(self):
        topo = switch_chain(8, hosts_per_switch=2)
        route = topo.source_route(0, 7)   # switch 0 -> ... -> switch 3
        assert len(route) == 4
        assert topo.hop_count(0, 7) == 5

    def test_route_out_of_range(self):
        topo = single_switch(2)
        with pytest.raises(ValueError):
            topo.source_route(0, 5)

    def test_port_of_unrelated_neighbor(self):
        topo = switch_chain(4, hosts_per_switch=2)
        with pytest.raises(ValueError, match="not adjacent"):
            topo.switch_port_of(0, host_node(3))


@st.composite
def random_topology(draw):
    n_hosts = draw(st.integers(min_value=2, max_value=10))
    hosts_per_switch = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["single", "chain", "fat"]))
    if kind == "single":
        return single_switch(n_hosts)
    if kind == "chain":
        return switch_chain(n_hosts, hosts_per_switch)
    leaves = max(1, n_hosts // max(hosts_per_switch, 1))
    per_leaf = -(-n_hosts // leaves)
    topo = fat_tree_2level(leaves, per_leaf,
                           n_spines=draw(st.integers(min_value=1, max_value=3)))
    return topo


@settings(max_examples=40, deadline=None)
@given(topo=random_topology(), data=st.data())
def test_every_route_is_walkable(topo, data):
    """Any (src, dst) route, followed hop by hop, ends at the destination."""
    src = data.draw(st.integers(min_value=0, max_value=topo.n_hosts - 1))
    dst = data.draw(st.integers(min_value=0, max_value=topo.n_hosts - 1))
    route = topo.source_route(src, dst)
    if src == dst:
        assert route == []
        return
    # Walk: start at src's switch, follow each port choice.
    position = next(iter(topo.graph.neighbors(host_node(src))))
    for hop, port in enumerate(route):
        kind, idx = position
        assert kind == "s"
        neighbors = topo.switch_neighbors(idx)
        assert 0 <= port < len(neighbors)
        position = neighbors[port]
    assert position == host_node(dst)


def crossed_leaves() -> Topology:
    """Two leaves that list the same two spines in opposite orders: the one
    shape here where *which search expands first* decides the route (the
    builders are symmetric, so on them only neighbour order shows)."""
    g = topology.Graph()
    for u, v in ((host_node(0), switch_node(0)), (host_node(1), switch_node(1)),
                 (switch_node(0), switch_node(2)), (switch_node(0), switch_node(3)),
                 (switch_node(1), switch_node(3)), (switch_node(1), switch_node(2))):
        g.add_edge(u, v)
    return Topology(g, n_hosts=2, n_switches=4)


def _builder_grid():
    """Every builder over hosts 2-13, 1-4 per switch, 1-6 groups / leaves,
    1-3 spines, and the asymmetric case."""
    yield crossed_leaves, ()
    for n in range(2, 14):
        yield single_switch, (n,)
        for per_switch in range(1, 5):
            yield switch_chain, (n, per_switch)
        for groups in range(1, 7):
            if n % groups == 0:
                yield switch_mesh, (n, groups)
    for leaves in range(1, 7):
        for per_leaf in range(1, 5):
            if leaves * per_leaf >= 2:
                for spines in range(1, 4):
                    yield fat_tree_2level, (leaves, per_leaf, spines)


def test_routes_are_networkx_shortest_paths(nx, monkeypatch):
    """The differential oracle for ``topology.shortest_path``: on every
    ordered host pair of every builder, the route is the one
    ``networkx.shortest_path`` picks on the same graph built in the same
    edge order.  A fat tree has one equal-length path per spine, which
    pins the neighbour order and the first-meeting rule; ``crossed_leaves``
    pins which search goes first (and with them every golden byte that
    crosses more than one switch)."""
    pairs = 0
    for builder, args in _builder_grid():
        topo = builder(*args)
        with monkeypatch.context() as patch:
            # The builder itself lays down the networkx twin: same nodes,
            # same edges, same order.
            patch.setattr(topology, "Graph", nx.Graph)
            twin = builder(*args)
        assert isinstance(twin.graph, nx.Graph)
        for a in range(topo.n_hosts):
            for b in range(topo.n_hosts):
                expected = nx.shortest_path(twin.graph, host_node(a),
                                            host_node(b))
                assert topo.path(a, b) == expected, (builder.__name__, args)
                # A Topology over an nx.Graph routes the same way.
                assert twin.path(a, b) == expected
                pairs += 1
    assert pairs == 14_262
