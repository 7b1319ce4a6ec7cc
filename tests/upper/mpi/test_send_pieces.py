"""Multi-piece (derived-datatype-style) sends: gather vs pack."""

import numpy as np
import pytest

from repro.upper.mpi.comm import from_bytes
from repro.upper.mpi.status import MpiError
from tests.golden.regen import mpi_world


@pytest.fixture(params=["fm1", "fm2"], ids=["mpi-fm1", "mpi-fm2"])
def world(request):
    return mpi_world(request.param)


class TestSendPieces:
    def test_pieces_arrive_concatenated(self, world):
        cluster, comms = world
        pieces = [b"header--", b"", b"body" * 100, b"!trailer"]
        out = {}

        def rank0(node):
            yield from comms[0].send_pieces(pieces, 1, tag=3)

        def rank1(node):
            data, _status = yield from comms[1].recv(0, 3)
            out["data"] = data

        cluster.run([rank0, rank1])
        assert out["data"] == b"".join(pieces)

    def test_eager_threshold_enforced(self, world):
        cluster, comms = world
        big = comms[0].engine.costs.eager_threshold + 1

        def rank0(node):
            yield from comms[0].send_pieces([bytes(big)], 1)

        with pytest.raises(MpiError, match="eager threshold"):
            cluster.run([rank0, None])

    def test_strided_rows_roundtrip(self, world):
        cluster, comms = world
        matrix = np.arange(40, dtype=np.float64).reshape(5, 8)
        view = matrix[::2, 1:7]   # a strided 3x6 view
        out = {}

        def rank0(node):
            yield from comms[0].send_strided(view, 1, tag=9)

        def rank1(node):
            data, _status = yield from comms[1].recv(0, 9)
            out["array"] = from_bytes(data, np.float64, (3, 6))

        cluster.run([rank0, rank1])
        assert np.array_equal(out["array"], view)

    def test_strided_needs_2d(self, world):
        cluster, comms = world
        with pytest.raises(MpiError, match="2-D"):
            next(comms[0].send_strided(np.zeros(4), 1))


class TestGatherVsPackCopies:
    """The datatype argument, metered: FM 2.x gathers pieces with zero
    send-side copies; FM 1.x must pack (one copy per payload byte) *and*
    then pays its usual assembly copy."""

    PIECES = [bytes(500), bytes(1000), bytes(548)]   # 2048 B total

    def run_version(self, binding):
        cluster, comms = mpi_world(binding)

        def rank0(node):
            yield from comms[0].send_pieces(self.PIECES, 1, tag=1)

        def rank1(node):
            yield from comms[1].recv(0, 1)

        cluster.run([rank0, rank1])
        return cluster.node(0).cpu.meter

    def test_fm2_send_side_zero_copy(self):
        meter = self.run_version("fm2")
        assert meter.copies == 0

    def test_fm1_packs_then_assembles(self):
        meter = self.run_version("fm1")
        assert meter.bytes_for("mpi1.datatype_pack") == 2048
        assert meter.bytes_for("mpi1.send_assembly") == 2048
