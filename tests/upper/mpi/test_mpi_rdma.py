"""The MPI RDMA rendezvous binding: pull-based large transfers, the
default binding untouched by it, and protocol accounting."""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.upper.mpi import (MPI2_DEFAULT_COSTS, MpiEngine,
                             MpiFm2RdmaBinding, build_mpi_world)

LARGE = MPI2_DEFAULT_COSTS.eager_threshold + 1


def make_world(rdma, n=2):
    cluster = Cluster(n, machine=PPRO_FM2, fm_version=2)
    return cluster, build_mpi_world(cluster, "rdma" if rdma else None)


class TestRdmaRendezvous:
    def test_large_send_round_trips(self):
        cluster, comms = make_world(rdma=True)
        payload = bytes(i % 253 for i in range(64 * 1024))
        out = {}
        def rank0(node):
            yield from comms[0].send(payload, 1, tag=9)
        def rank1(node):
            data, status = yield from comms[1].recv(0, 9, max_bytes=len(payload))
            out["data"], out["count"] = data, status.count
        cluster.run([rank0, rank1])
        assert out["data"] == payload
        assert out["count"] == len(payload)

    def test_payload_travelled_one_sided(self):
        """The rendezvous payload must ride RDMA read, not FM data
        messages: the receiver served the bytes via its NIC's read
        machinery, and the sender sent only the 32-byte advert."""
        cluster, comms = make_world(rdma=True)
        payload = b"\x5a" * LARGE
        def rank0(node):
            yield from comms[0].send(payload, 1, tag=1)
        def rank1(node):
            yield from comms[1].recv(0, 1, max_bytes=LARGE)
        cluster.run([rank0, rank1])
        e0, e1 = comms[0].engine, comms[1].engine
        assert e0.stats_rdma_rendezvous == 1
        assert e1.stats_rdma_pulls == 1
        # Sender's NIC served the payload as RDMA read responses.
        assert cluster.node(0).nic.rdma_reads_served == 1
        assert cluster.node(0).nic.rdma_read_bytes == LARGE
        # FM carried only control: advert (sender) and FIN (receiver).
        assert e0.fm.stats_sent_messages == 1
        assert e1.fm.stats_sent_messages == 1
        # The source region was deregistered after the FIN.
        assert cluster.node(0).nic.regions == {}

    def test_small_sends_stay_eager(self):
        cluster, comms = make_world(rdma=True)
        out = {}
        def rank0(node):
            yield from comms[0].send(b"tiny", 1, tag=3)
        def rank1(node):
            data, _ = yield from comms[1].recv(0, 3)
            out["data"] = data
        cluster.run([rank0, rank1])
        assert out["data"] == b"tiny"
        assert comms[0].engine.stats_rdma_rendezvous == 0
        assert cluster.node(0).nic.rdma_reads_served == 0

    def test_unexpected_advert_matches_late_receive(self):
        """RTS_RDMA arriving before the receive parks as unexpected; the
        late irecv adopts it and the pull still lands the payload."""
        cluster, comms = make_world(rdma=True)
        payload = bytes((i * 3) % 251 for i in range(LARGE))
        out = {}
        def rank0(node):
            yield from comms[0].send(payload, 1, tag=7)
        def rank1(node):
            # Let the advert arrive and park before posting the receive.
            yield node.env.timeout(500_000)
            yield from comms[1].engine.progress()
            assert comms[1].engine.unexpected, "advert should have parked"
            data, _ = yield from comms[1].recv(0, 7, max_bytes=LARGE)
            out["data"] = data
        cluster.run([rank0, rank1])
        assert out["data"] == payload

    def test_many_outstanding_transfers(self):
        cluster, comms = make_world(rdma=True)
        payloads = [bytes([i]) * (LARGE + i * 100) for i in range(4)]
        got = []
        def rank0(node):
            for i, payload in enumerate(payloads):
                yield from comms[0].send(payload, 1, tag=i)
        def rank1(node):
            for i, payload in enumerate(payloads):
                data, _ = yield from comms[1].recv(0, i,
                                                   max_bytes=len(payload))
                got.append(data)
        cluster.run([rank0, rank1])
        assert got == payloads
        assert comms[0].engine.stats_rdma_rendezvous == 4
        assert cluster.node(0).nic.regions == {}


class TestDefaultOff:
    def test_rdma_off_touches_no_rdma_machinery(self):
        cluster, comms = make_world(rdma=False)
        payload = b"\x11" * LARGE
        def rank0(node):
            yield from comms[0].send(payload, 1, tag=2)
        def rank1(node):
            yield from comms[1].recv(0, 2, max_bytes=LARGE)
        cluster.run([rank0, rank1])
        for node in cluster.nodes:
            assert node.nic.rdma_reads_served == 0
            assert node.nic.rdma_write_packets == 0
            assert node.nic.regions == {}
        assert comms[0].engine.stats_rdma_rendezvous == 0
        assert comms[0].engine.stats_rendezvous == 1

    def test_default_is_the_classic_binding_in_time_and_stats(self):
        """The default is ``binding="fm2"``: same completion time, same
        message counts, to the nanosecond."""
        def run_once(**kwargs):
            cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
            comms = build_mpi_world(cluster, **kwargs)
            payload = bytes(i % 247 for i in range(LARGE))
            def rank0(node):
                yield from comms[0].send(payload, 1, tag=4)
            def rank1(node):
                yield from comms[1].recv(0, 4, max_bytes=LARGE)
            cluster.run([rank0, rank1])
            return (cluster.env.now,
                    comms[0].engine.fm.stats_sent_messages,
                    comms[0].engine.fm.stats_sent_packets,
                    comms[1].engine.fm.stats_recv_messages)
        assert run_once() == run_once(binding="fm2")

    def test_rdma_needs_fm2(self):
        from repro.configs import SPARC_FM1
        cluster = Cluster(2, machine=SPARC_FM1, fm_version=1)
        with pytest.raises(ValueError, match="'rdma' binds FM 2.x: "
                           "fm_version must be 2, got 1"):
            build_mpi_world(cluster, binding="rdma")
        # Below the table, the binding itself still refuses the endpoint.
        with pytest.raises(TypeError, match="needs an FM2 endpoint"):
            MpiEngine(cluster.node(0), MPI2_DEFAULT_COSTS, 2,
                      MpiFm2RdmaBinding)


class TestDeterminism:
    def run_once(self):
        cluster, comms = make_world(rdma=True)
        payload = bytes(i % 241 for i in range(40_000))
        def rank0(node):
            yield from comms[0].send(payload, 1, tag=0)
            yield from comms[0].recv(1, 1, max_bytes=50_000)
        def rank1(node):
            data, _ = yield from comms[1].recv(0, 0, max_bytes=50_000)
            yield from comms[1].send(data[:30_000], 0, tag=1)
        cluster.run([rank0, rank1])
        return cluster.env.now

    def test_reruns_identical(self):
        assert self.run_once() == self.run_once()
