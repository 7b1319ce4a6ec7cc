"""One-sided RDMA verbs: registration, put/get delivery, bypass of the
FM receive path, error handling, determinism."""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.rdma import RdmaEndpoint, RdmaError


@pytest.fixture
def rdma_cluster() -> Cluster:
    return Cluster(2, machine=PPRO_FM2, fm_version=2)


def endpoints(cluster):
    return [RdmaEndpoint(node) for node in cluster.nodes]


class TestRegistration:
    def test_register_returns_fresh_rkeys(self, rdma_cluster):
        ep = endpoints(rdma_cluster)[0]
        keys = []
        def program(node):
            keys.append((yield from ep.register(node.buffer(256))))
            keys.append((yield from ep.register(node.buffer(256))))
        rdma_cluster.run([program, None])
        assert keys == [1, 2]
        assert set(rdma_cluster.node(0).nic.regions) == {1, 2}

    def test_registration_pins_the_buffer(self, rdma_cluster):
        ep = endpoints(rdma_cluster)[0]
        buf = rdma_cluster.node(0).buffer(256)
        def program(node):
            yield from ep.register(buf)
        rdma_cluster.run([program, None])
        assert buf.pinned

    def test_deregister_removes_the_region(self, rdma_cluster):
        ep = endpoints(rdma_cluster)[0]
        def program(node):
            rkey = yield from ep.register(node.buffer(256))
            yield from ep.deregister(rkey)
        rdma_cluster.run([program, None])
        assert rdma_cluster.node(0).nic.regions == {}

    def test_duplicate_rkey_rejected(self, rdma_cluster):
        nic = rdma_cluster.node(0).nic
        nic.register_region(7, rdma_cluster.node(0).buffer(64))
        with pytest.raises(ValueError):
            nic.register_region(7, rdma_cluster.node(0).buffer(64))


class TestPut:
    def test_put_lands_bytes_at_remote_offset(self, rdma_cluster):
        eps = endpoints(rdma_cluster)
        region = rdma_cluster.node(1).buffer(8192)
        payload = bytes(i % 251 for i in range(4096))
        def target(node):
            yield from eps[1].register(region)          # rkey 1
        def initiator(node):
            yield node.env.timeout(10_000)              # after registration
            src = node.buffer(4096, fill=payload)
            yield from eps[0].rdma_put(1, 1, src, 4096, remote_offset=512)
            # Wait for the remote write completion to drain the wire.
            yield node.env.timeout(200_000)
        rdma_cluster.run([initiator, target])
        assert region.read(512, 4096) == payload
        assert region.read(0, 512) == b"\x00" * 512
        nic = rdma_cluster.node(1).nic
        assert nic.rdma_write_bytes == 4096
        assert nic.rdma_unmatched == 0

    def test_put_bypasses_the_fm_receive_path(self, rdma_cluster):
        """The whole point of one-sided: no handler ran, no receive-region
        slot was consumed, no credit was spent."""
        eps = endpoints(rdma_cluster)
        node0, node1 = rdma_cluster.nodes
        credits_before = dict(node0.fm._credits)
        def target(node):
            yield from eps[1].register(node.buffer(4096))
        def initiator(node):
            yield node.env.timeout(10_000)
            src = node.buffer(2048, fill=b"y" * 2048)
            yield from eps[0].rdma_put(1, 1, src, 2048)
            yield node.env.timeout(200_000)
        rdma_cluster.run([initiator, target])
        assert node0.fm._credits == credits_before
        assert node1.nic.recv_region.level == 0
        assert node1.fm.stats_recv_messages == 0
        assert node1.fm.stats_recv_packets == 0

    def test_unmatched_rkey_counts_and_drops(self, rdma_cluster):
        eps = endpoints(rdma_cluster)
        def initiator(node):
            src = node.buffer(64, fill=b"z" * 64)
            yield from eps[0].rdma_put(1, 99, src, 64)
            yield node.env.timeout(100_000)
        rdma_cluster.run([initiator, None])
        nic = rdma_cluster.node(1).nic
        assert nic.rdma_unmatched == 1
        assert nic.rdma_write_bytes == 0

    def test_put_past_region_end_counts_unmatched(self, rdma_cluster):
        eps = endpoints(rdma_cluster)
        def target(node):
            yield from eps[1].register(node.buffer(128))
        def initiator(node):
            yield node.env.timeout(10_000)
            src = node.buffer(256, fill=b"w" * 256)
            yield from eps[0].rdma_put(1, 1, src, 256, remote_offset=0)
            yield node.env.timeout(100_000)
        rdma_cluster.run([initiator, target])
        assert rdma_cluster.node(1).nic.rdma_unmatched > 0

    def test_self_put_rejected(self, rdma_cluster):
        ep = endpoints(rdma_cluster)[0]
        def program(node):
            yield from ep.rdma_put(0, 1, node.buffer(64), 64)
        with pytest.raises(RdmaError):
            rdma_cluster.run([program, None])

    def test_put_larger_than_buffer_rejected(self, rdma_cluster):
        ep = endpoints(rdma_cluster)[0]
        def program(node):
            yield from ep.rdma_put(1, 1, node.buffer(64), 65)
        with pytest.raises(RdmaError):
            rdma_cluster.run([program, None])

    @pytest.mark.parametrize("verb", ["put", "get"])
    def test_zero_length_names_the_length_not_the_buffer(self, rdma_cluster,
                                                        verb):
        ep = endpoints(rdma_cluster)[0]
        def program(node):
            yield from getattr(ep, f"rdma_{verb}")(1, 1, node.buffer(64), 0)
        with pytest.raises(RdmaError,
                           match=f"^{verb} of 0 B: must move at least 1 B$"):
            rdma_cluster.run([program, None])


class TestGet:
    def test_get_round_trips_remote_bytes(self, rdma_cluster):
        eps = endpoints(rdma_cluster)
        payload = bytes((i * 7) % 256 for i in range(2048))
        sink = rdma_cluster.node(0).buffer(4096)
        def target(node):
            region = node.buffer(4096, fill=payload + b"\x00" * 2048)
            yield from eps[1].register(region)
        def initiator(node):
            yield node.env.timeout(10_000)
            yield from eps[0].rdma_get(1, 1, sink, 2048, local_offset=1024)
        rdma_cluster.run([initiator, target])
        assert sink.read(1024, 2048) == payload
        assert rdma_cluster.node(1).nic.rdma_reads_served == 1
        assert rdma_cluster.node(1).nic.rdma_read_bytes == 2048

    def test_get_blocks_until_data_has_landed(self, rdma_cluster):
        eps = endpoints(rdma_cluster)
        t_done = []
        def target(node):
            yield from eps[1].register(node.buffer(65536, fill=b"q" * 65536))
        def initiator(node):
            yield node.env.timeout(10_000)
            sink = node.buffer(65536)
            yield from eps[0].rdma_get(1, 1, sink, 65536)
            t_done.append(node.env.now)
            assert sink.read() == b"q" * 65536
        rdma_cluster.run([initiator, target])
        # 64 KB over a 160 MB/s link alone is > 400 us: the verb really
        # waited for the payload, not just the request round-trip.
        assert t_done[0] > 400_000


class TestDeterminism:
    def run_once(self):
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        eps = endpoints(cluster)
        def target(node):
            yield from eps[1].register(node.buffer(8192))
        def initiator(node):
            yield node.env.timeout(10_000)
            src = node.buffer(8192, fill=bytes(i % 256 for i in range(8192)))
            yield from eps[0].rdma_put(1, 1, src, 8192)
            sink = node.buffer(4096)
            yield from eps[0].rdma_get(1, 1, sink, 4096, remote_offset=2048)
            yield node.env.timeout(100_000)
        cluster.run([initiator, target])
        nic = cluster.node(1).nic
        return (cluster.env.now, eps[0].stats_put_bytes,
                eps[0].stats_get_bytes, nic.rdma_write_bytes,
                nic.rdma_read_bytes)

    def test_reruns_are_identical(self):
        assert self.run_once() == self.run_once()
