"""MPI engine edge cases: request misuse, stall detection, serials,
status objects, iprobe negatives."""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.upper.mpi import ANY_SOURCE, ANY_TAG, build_mpi_world
from repro.upper.mpi.status import MpiError, Request, Status
from tests.golden.regen import mpi_world


class TestRequest:
    def test_double_finish_rejected(self):
        request = Request("recv")
        request.finish(Status(0, 0, 0))
        with pytest.raises(MpiError, match="twice"):
            request.finish(Status(0, 0, 0))

    def test_repr_states(self):
        request = Request("send")
        assert "pending" in repr(request)
        request.finish()
        assert "complete" in repr(request)

    def test_ids_unique(self):
        assert Request("send").id != Request("send").id


class TestEngineEdges:
    def test_wait_stall_detected(self):
        """A receive nothing will ever match fails loudly, not silently."""
        from repro.core.common import FmParams
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2,
                          fm_params=FmParams(packet_payload=1024,
                                             stall_limit_ns=300_000))
        comms = build_mpi_world(cluster)

        def starved(node):
            yield from comms[1].recv(0, 9)

        with pytest.raises(MpiError, match="no progress"):
            cluster.run([None, starved])

    def test_negative_recv_size_rejected(self):
        cluster, comms = mpi_world("fm2")

        def rank1(node):
            yield from comms[1].irecv(0, 0, max_bytes=-1)

        with pytest.raises(MpiError, match="negative"):
            cluster.run([None, rank1])

    def test_serials_increase_per_destination(self):
        cluster, comms = mpi_world("fm2", n=3)
        engine = comms[0].engine
        assert engine.next_serial(1) == 0
        assert engine.next_serial(1) == 1
        assert engine.next_serial(2) == 0

    def test_iprobe_misses_return_none(self):
        cluster, comms = mpi_world("fm2")
        out = {}

        def rank0(node):
            yield from comms[0].send(b"present", 1, tag=4)

        def rank1(node):
            # Force the message into the unexpected queue first.
            while comms[1].engine.stats_unexpected == 0:
                yield from comms[1].engine.progress()
                yield node.env.timeout(1_000)
            miss = yield from comms[1].engine.iprobe(0, 99)
            hit = yield from comms[1].engine.iprobe(0, 4)
            wildcard = yield from comms[1].engine.iprobe(ANY_SOURCE, ANY_TAG)
            out["miss"], out["hit"], out["wild"] = miss, hit, wildcard
            yield from comms[1].recv(0, 4)

        cluster.run([rank0, rank1])
        assert out["miss"] is None
        assert out["hit"].count == 7
        assert out["wild"].tag == 4

    def test_status_fields_from_wait(self):
        cluster, comms = mpi_world("fm2")
        out = {}

        def rank0(node):
            yield from comms[0].send(b"abcde", 1, tag=11)

        def rank1(node):
            req = yield from comms[1].irecv(ANY_SOURCE, ANY_TAG)
            data, status = yield from comms[1].wait(req)
            out["status"] = status
            out["data"] = data

        cluster.run([rank0, rank1])
        assert out["data"] == b"abcde"
        assert (out["status"].source, out["status"].tag,
                out["status"].count) == (0, 11, 5)

    def test_engine_repr(self):
        _cluster, comms = mpi_world("fm2")
        assert "MpiEngine" in repr(comms[0].engine)
        assert "Communicator" in repr(comms[0])
