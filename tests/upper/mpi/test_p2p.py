"""MPI point-to-point on both bindings: blocking, nonblocking, wildcards,
tags, rendezvous, probe, statuses."""

import pytest

from repro.upper.mpi import ANY_SOURCE, ANY_TAG
from repro.upper.mpi.status import MpiError
from tests.golden.regen import mpi_world


@pytest.fixture(params=["fm1", "fm2"], ids=["mpi-fm1", "mpi-fm2"])
def world(request):
    return mpi_world(request.param)


class TestBlocking:
    def test_send_recv_roundtrip(self, world):
        cluster, comms = world
        result = {}
        def rank0(node):
            yield from comms[0].send(b"payload", 1, tag=5)
        def rank1(node):
            data, status = yield from comms[1].recv(0, 5)
            result["data"], result["status"] = data, status
        cluster.run([rank0, rank1])
        assert result["data"] == b"payload"
        assert result["status"].source == 0
        assert result["status"].tag == 5
        assert result["status"].count == 7

    def test_empty_message(self, world):
        cluster, comms = world
        out = {}
        def rank0(node):
            yield from comms[0].send(b"", 1, tag=1)
        def rank1(node):
            data, status = yield from comms[1].recv(0, 1)
            out["data"], out["count"] = data, status.count
        cluster.run([rank0, rank1])
        assert out == {"data": b"", "count": 0}

    def test_recv_posted_before_send(self, world):
        cluster, comms = world
        out = {}
        def rank0(node):
            yield node.env.timeout(100_000)
            yield from comms[0].send(b"late", 1, tag=2)
        def rank1(node):
            data, _status = yield from comms[1].recv(0, 2)
            out["data"] = data
        cluster.run([rank0, rank1])
        assert out["data"] == b"late"

    def test_unexpected_then_recv(self, world):
        cluster, comms = world
        out = {}
        def rank0(node):
            yield from comms[0].send(b"early", 1, tag=3)
        def rank1(node):
            # Drive the progress engine with no receive posted, so the
            # message lands in the unexpected queue.
            while comms[1].engine.stats_unexpected == 0:
                yield from comms[1].engine.progress()
                yield node.env.timeout(1_000)
            data, _status = yield from comms[1].recv(0, 3)
            out["data"] = data
        cluster.run([rank0, rank1])
        assert out["data"] == b"early"
        assert comms[1].engine.stats_unexpected >= 1

    def test_tag_selectivity(self, world):
        cluster, comms = world
        order = []
        def rank0(node):
            yield from comms[0].send(b"tag-a", 1, tag=10)
            yield from comms[0].send(b"tag-b", 1, tag=20)
        def rank1(node):
            data_b, _ = yield from comms[1].recv(0, 20)
            data_a, _ = yield from comms[1].recv(0, 10)
            order.extend([data_b, data_a])
        cluster.run([rank0, rank1])
        assert order == [b"tag-b", b"tag-a"]

    def test_wildcard_source_and_tag(self, world):
        cluster, comms = world
        out = {}
        def rank0(node):
            yield from comms[0].send(b"anything", 1, tag=42)
        def rank1(node):
            data, status = yield from comms[1].recv(ANY_SOURCE, ANY_TAG)
            out["data"], out["source"], out["tag"] = data, status.source, status.tag
        cluster.run([rank0, rank1])
        assert out == {"data": b"anything", "source": 0, "tag": 42}

    def test_non_overtaking_same_match(self, world):
        cluster, comms = world
        received = []
        def rank0(node):
            for i in range(5):
                yield from comms[0].send(bytes([i]), 1, tag=7)
        def rank1(node):
            for _ in range(5):
                data, _ = yield from comms[1].recv(0, 7)
                received.append(data[0])
        cluster.run([rank0, rank1])
        assert received == [0, 1, 2, 3, 4]

    def test_truncation_raises(self, world):
        cluster, comms = world
        def rank0(node):
            yield from comms[0].send(b"x" * 100, 1, tag=1)
        def rank1(node):
            yield from comms[1].recv(0, 1, max_bytes=10)
        with pytest.raises(MpiError, match="truncat"):
            cluster.run([rank0, rank1])

    def test_sendrecv_exchange(self, world):
        cluster, comms = world
        out = {}
        def make(rank, peer):
            def program(node):
                data, _ = yield from comms[rank].sendrecv(
                    f"from-{rank}".encode(), peer, peer)
                out[rank] = data
            return program
        cluster.run([make(0, 1), make(1, 0)])
        assert out == {0: b"from-1", 1: b"from-0"}


class TestNonblocking:
    def test_irecv_wait(self, world):
        cluster, comms = world
        out = {}
        def rank0(node):
            yield from comms[0].send(b"nb", 1, tag=9)
        def rank1(node):
            req = yield from comms[1].irecv(0, 9)
            data, status = yield from comms[1].wait(req)
            out["data"] = data
        cluster.run([rank0, rank1])
        assert out["data"] == b"nb"

    def test_isend_request_complete(self, world):
        cluster, comms = world
        out = {}
        def rank0(node):
            req = yield from comms[0].isend(b"zzz", 1, tag=4)
            out["complete"] = req.complete
        def rank1(node):
            yield from comms[1].recv(0, 4)
        cluster.run([rank0, rank1])
        assert out["complete"]

    def test_multiple_outstanding_irecvs(self, world):
        cluster, comms = world
        out = []
        def rank0(node):
            for i in range(4):
                yield from comms[0].send(bytes([i]) * 8, 1, tag=i)
        def rank1(node):
            requests = []
            for i in range(4):
                requests.append((yield from comms[1].irecv(0, i)))
            yield from comms[1].waitall(requests)
            out.extend(req.data for req in requests)
        cluster.run([rank0, rank1])
        assert out == [bytes([i]) * 8 for i in range(4)]

    def test_test_polls_without_blocking(self, world):
        cluster, comms = world
        polls = []
        def rank0(node):
            yield node.env.timeout(50_000)
            yield from comms[0].send(b"eventually", 1, tag=1)
        def rank1(node):
            req = yield from comms[1].irecv(0, 1)
            while True:
                done = yield from comms[1].engine.test(req)
                polls.append(done)
                if done:
                    break
                yield node.env.timeout(2_000)
        cluster.run([rank0, rank1])
        assert polls[-1] is True
        assert polls.count(False) >= 1


class TestProbe:
    def test_probe_reports_envelope(self, world):
        cluster, comms = world
        out = {}
        def rank0(node):
            yield from comms[0].send(b"probe-me", 1, tag=13)
        def rank1(node):
            status = yield from comms[1].probe(0, 13)
            out["probe"] = (status.source, status.tag, status.count)
            data, _ = yield from comms[1].recv(0, 13)
            out["data"] = data
        cluster.run([rank0, rank1])
        assert out["probe"] == (0, 13, 8)
        assert out["data"] == b"probe-me"


class TestRendezvous:
    def test_large_message_uses_rendezvous(self, world):
        cluster, comms = world
        size = comms[0].engine.costs.eager_threshold + 1
        payload = bytes(i % 251 for i in range(size))
        out = {}
        def rank0(node):
            yield from comms[0].send(payload, 1, tag=6)
        def rank1(node):
            data, _ = yield from comms[1].recv(0, 6, max_bytes=size + 10)
            out["data"] = data
        cluster.run([rank0, rank1])
        assert out["data"] == payload
        assert comms[0].engine.stats_rendezvous == 1

    def test_rendezvous_with_late_receiver(self, world):
        cluster, comms = world
        size = comms[0].engine.costs.eager_threshold * 2
        payload = bytes(size)
        out = {}
        def rank0(node):
            yield from comms[0].send(payload, 1, tag=8)
        def rank1(node):
            yield node.env.timeout(300_000)
            data, _ = yield from comms[1].recv(0, 8, max_bytes=size)
            out["n"] = len(data)
        cluster.run([rank0, rank1])
        assert out["n"] == size


class TestValidation:
    def test_invalid_rank(self, world):
        cluster, comms = world
        def rank0(node):
            yield from comms[0].send(b"x", 5, tag=1)
        with pytest.raises(MpiError, match="rank"):
            cluster.run([rank0, None])

    def test_self_send_rejected(self, world):
        cluster, comms = world
        def rank0(node):
            yield from comms[0].send(b"x", 0, tag=1)
        with pytest.raises(MpiError, match="self"):
            cluster.run([rank0, None])

    def test_negative_tag_rejected(self, world):
        cluster, comms = world
        def rank0(node):
            yield from comms[0].send(b"x", 1, tag=-3)
        with pytest.raises(MpiError):
            cluster.run([rank0, None])

    def test_context_isolation(self, world):
        """Messages on a dup'ed communicator don't match the parent's tags."""
        cluster, comms = world
        dups = [comm.dup() for comm in comms]
        out = {}
        def rank0(node):
            yield from dups[0].send(b"on-dup", 1, tag=5)
            yield from comms[0].send(b"on-world", 1, tag=5)
        def rank1(node):
            data, _ = yield from comms[1].recv(0, 5)
            out["world"] = data
            data, _ = yield from dups[1].recv(0, 5)
            out["dup"] = data
        cluster.run([rank0, rank1])
        assert out == {"world": b"on-world", "dup": b"on-dup"}
