"""Typed numpy send/recv wrappers."""

import numpy as np
import pytest

from repro.upper.mpi.comm import from_bytes, to_bytes
from repro.upper.mpi.status import MpiError
from tests.golden.regen import mpi_world


class TestSerialisation:
    def test_roundtrip_preserves_dtype_and_shape(self):
        array = np.arange(12, dtype=np.float32).reshape(3, 4)
        back = from_bytes(to_bytes(array), np.float32, (3, 4))
        assert back.dtype == np.float32
        assert np.array_equal(back, array)

    def test_noncontiguous_input_handled(self):
        array = np.arange(20).reshape(4, 5)[:, ::2]   # strided view
        back = from_bytes(to_bytes(array), array.dtype, array.shape)
        assert np.array_equal(back, array)

    def test_from_bytes_returns_writable_copy(self):
        back = from_bytes(to_bytes(np.zeros(4)), np.float64)
        back[0] = 1.0   # would raise on a frombuffer view


class TestTypedSendRecv:
    def test_array_roundtrip(self):
        cluster, comms = mpi_world("fm2")
        out = {}

        def rank0(node):
            yield from comms[0].send_array(
                np.arange(6, dtype=np.int32).reshape(2, 3), 1, tag=4)

        def rank1(node):
            array, status = yield from comms[1].recv_array(
                np.int32, (2, 3), source=0, tag=4)
            out["array"], out["count"] = array, status.count

        cluster.run([rank0, rank1])
        assert np.array_equal(out["array"],
                              np.arange(6, dtype=np.int32).reshape(2, 3))
        assert out["count"] == 24

    def test_dtype_size_mismatch_detected(self):
        cluster, comms = mpi_world("fm2")

        def rank0(node):
            yield from comms[0].send_array(np.zeros(3, dtype=np.float64), 1)

        def rank1(node):
            yield from comms[1].recv_array(np.float64, (5,), source=0)

        # 5 float64 = 40 bytes posted, 24 arrive: the count check fires
        # (a 3-element receive posting would have been a truncation error).
        with pytest.raises(MpiError, match="typed receive expected"):
            cluster.run([rank0, rank1])

    def test_scalar_shape(self):
        cluster, comms = mpi_world("fm2")
        out = {}

        def rank0(node):
            yield from comms[0].send_array(np.array(3.25), 1)

        def rank1(node):
            array, _status = yield from comms[1].recv_array(np.float64, ())
            out["value"] = float(array)

        cluster.run([rank0, rank1])
        assert out["value"] == 3.25
