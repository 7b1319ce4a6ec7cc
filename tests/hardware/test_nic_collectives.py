"""NIC-offloaded collectives: the firmware barrier and broadcast state
machines plus their host bindings."""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.rdma import NicCollectives
from repro.hardware.nic import COLL_BARRIER, COLL_BCAST, _binomial_children


def make_cluster(n):
    return Cluster(n, machine=PPRO_FM2, fm_version=2)


class TestBinomialChildren:
    def test_root_fans_out_by_powers_of_two(self):
        assert _binomial_children(0, 8) == [1, 2, 4]
        assert _binomial_children(0, 5) == [1, 2, 4]

    def test_interior_nodes(self):
        assert _binomial_children(1, 8) == [3, 5]
        assert _binomial_children(2, 8) == [6]
        assert _binomial_children(4, 8) == []

    def test_every_rank_has_exactly_one_parent(self):
        for n in (2, 3, 5, 8, 13, 16):
            seen = []
            for rel in range(n):
                seen.extend(_binomial_children(rel, n))
            assert sorted(seen) == list(range(1, n))


class TestBarrier:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_all_nodes_leave_together(self, n):
        cluster = make_cluster(n)
        colls = [NicCollectives(node, n) for node in cluster.nodes]
        exits = {}
        def program(node):
            coll = colls[node.node_id]
            # Stagger entries so the barrier actually has to wait.
            yield node.env.timeout(1_000 * (node.node_id + 1))
            yield from coll.barrier()
            exits[node.node_id] = node.env.now
        cluster.run([program] * n)
        assert set(exits) == set(range(n))
        # Nobody leaves before the last entry (n * 1000 ns).
        assert min(exits.values()) >= n * 1_000
        for coll in colls:
            assert coll.stats_barriers == 1
        # The collective table is garbage-collected after completion.
        for node in cluster.nodes:
            assert node.nic._colls == {}

    def test_back_to_back_barriers_stay_aligned(self):
        n = 4
        cluster = make_cluster(n)
        colls = [NicCollectives(node, n) for node in cluster.nodes]
        def program(node):
            coll = colls[node.node_id]
            for _ in range(3):
                yield from coll.barrier()
        cluster.run([program] * n)
        for coll in colls:
            assert coll.stats_barriers == 3

    def test_group_bounds_validated(self):
        cluster = make_cluster(2)
        with pytest.raises(ValueError):
            NicCollectives(cluster.node(1), 1)
        with pytest.raises(ValueError):
            NicCollectives(cluster.node(0), 0)


class TestBcast:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_payload_reaches_every_node(self, n):
        cluster = make_cluster(n)
        colls = [NicCollectives(node, n) for node in cluster.nodes]
        payload = bytes(i % 249 for i in range(3000))
        buffers = {}
        def program(node):
            coll = colls[node.node_id]
            fill = payload if node.node_id == 0 else None
            buf = node.buffer(3000, fill=fill)
            buffers[node.node_id] = buf
            yield from coll.bcast(buf, 3000, root=0)
        cluster.run([program] * n)
        for node_id, buf in buffers.items():
            assert buf.read() == payload, f"node {node_id} payload differs"
        for node in cluster.nodes:
            assert node.nic._colls == {}

    def test_nonzero_root(self):
        n = 4
        cluster = make_cluster(n)
        colls = [NicCollectives(node, n) for node in cluster.nodes]
        payload = b"\xabrootward" * 10
        buffers = {}
        def program(node):
            coll = colls[node.node_id]
            fill = payload if node.node_id == 2 else None
            buf = node.buffer(len(payload), fill=fill)
            buffers[node.node_id] = buf
            yield from coll.bcast(buf, len(payload), root=2)
        cluster.run([program] * n)
        for buf in buffers.values():
            assert buf.read() == payload

    def test_bad_root_rejected(self):
        cluster = make_cluster(2)
        coll = NicCollectives(cluster.node(0), 2)
        def program(node):
            yield from coll.bcast(node.buffer(64), 64, root=2)
        with pytest.raises(ValueError):
            cluster.run([program, None])

    def test_zero_length_names_the_length_not_the_buffer(self):
        cluster = make_cluster(2)
        coll = NicCollectives(cluster.node(0), 2)
        def program(node):
            yield from coll.bcast(node.buffer(64), 0, root=0)
        with pytest.raises(ValueError,
                           match="^bcast of 0 B: must move at least 1 B$"):
            cluster.run([program, None])

    def test_opcode_mismatch_on_same_coll_id_rejected(self):
        cluster = make_cluster(2)
        nic = cluster.node(0).nic
        nic._coll_state(5, COLL_BARRIER)
        with pytest.raises(ValueError):
            nic._coll_state(5, COLL_BCAST)


class TestScaling:
    def test_barrier_cost_grows_logarithmically(self):
        """Dissemination rounds are ceil(log2 n): doubling the cluster
        adds one round, so latency grows far slower than linearly."""
        def barrier_ns(n):
            cluster = make_cluster(n)
            colls = [NicCollectives(node, n) for node in cluster.nodes]
            t = {}
            def program(node):
                yield from colls[node.node_id].barrier()
                t[node.node_id] = node.env.now
            cluster.run([program] * n)
            return max(t.values())
        t2, t4, t16 = barrier_ns(2), barrier_ns(4), barrier_ns(16)
        assert t2 < t4 < t16
        # 8x the nodes costs (4 rounds / 2 rounds) ~ 2x, not 8x.
        assert t16 < 4 * t2

    def test_determinism(self):
        def run_once():
            n = 5
            cluster = make_cluster(n)
            colls = [NicCollectives(node, n) for node in cluster.nodes]
            def program(node):
                coll = colls[node.node_id]
                yield from coll.barrier()
                buf = node.buffer(2048, fill=(b"d" * 2048 if
                                              node.node_id == 1 else None))
                yield from coll.bcast(buf, 2048, root=1)
                yield from coll.barrier()
            cluster.run([program] * n)
            return cluster.env.now
        assert run_once() == run_once()
