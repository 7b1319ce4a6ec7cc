"""waitany / waitsome completion semantics."""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.upper.mpi import build_mpi_world
from repro.upper.mpi.status import MpiError
from tests.golden.regen import mpi_world


class TestWaitany:
    def test_returns_first_completion(self):
        cluster, comms = mpi_world("fm2", n=3)
        out = {}

        def rank1(node):
            yield node.env.timeout(500_000)     # deliberately late
            yield from comms[1].send(b"slow", 0, tag=1)

        def rank2(node):
            yield from comms[2].send(b"fast", 0, tag=2)

        def rank0(node):
            slow_req = yield from comms[0].irecv(1, 1)
            fast_req = yield from comms[0].irecv(2, 2)
            index, data, status = yield from comms[0].waitany(
                [slow_req, fast_req])
            out["first"] = (index, data, status.source)
            yield from comms[0].wait(slow_req)

        cluster.run([rank0, rank1, rank2])
        assert out["first"] == (1, b"fast", 2)

    def test_already_complete_short_circuits(self):
        cluster, comms = mpi_world("fm2")
        out = {}

        def rank1(node):
            yield from comms[1].send(b"x", 0, tag=1)

        def rank0(node):
            request = yield from comms[0].irecv(1, 1)
            yield from comms[0].wait(request)
            index, data, _status = yield from comms[0].waitany([request])
            out["index"] = index

        cluster.run([rank0, rank1])
        assert out["index"] == 0

    def test_empty_list_rejected(self):
        cluster, comms = mpi_world("fm2")

        def rank0(node):
            yield from comms[0].waitany([])

        with pytest.raises(MpiError, match="at least one"):
            cluster.run([rank0, None])

    def test_stall_detected(self):
        from repro.core.common import FmParams
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2,
                          fm_params=FmParams(packet_payload=1024,
                                             stall_limit_ns=300_000))
        comms = build_mpi_world(cluster)

        def rank0(node):
            request = yield from comms[0].irecv(1, 9)
            yield from comms[0].waitany([request])

        with pytest.raises(MpiError, match="no progress"):
            cluster.run([rank0, None])


class TestWaitsome:
    def test_reports_all_completed(self):
        cluster, comms = mpi_world("fm2", n=3)
        out = {}

        def rank1(node):
            yield from comms[1].send(b"a", 0, tag=1)
            yield from comms[1].send(b"b", 0, tag=2)

        def rank2(node):
            yield node.env.timeout(800_000)
            yield from comms[2].send(b"c", 0, tag=3)

        def rank0(node):
            requests = []
            for source, tag in ((1, 1), (1, 2), (2, 3)):
                requests.append((yield from comms[0].irecv(source, tag)))
            # Let rank 1's two messages land together.
            yield node.env.timeout(400_000)
            indices = yield from comms[0].waitsome(requests)
            out["some"] = sorted(indices)
            yield from comms[0].waitall(requests)

        cluster.run([rank0, rank1, rank2])
        assert out["some"] == [0, 1]
