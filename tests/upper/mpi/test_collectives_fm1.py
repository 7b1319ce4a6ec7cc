"""Collectives over the FM 1.x binding: same algorithms, copy-heavy path.

The collectives are built purely on point-to-point, so they must work
identically over either binding — only slower.  A timing comparison at the
end quantifies the binding gap on a collective workload.
"""

import numpy as np
import pytest

from tests.upper.mpi import run_spmd


@pytest.mark.parametrize("n_ranks", [2, 3, 4])
class TestFm1Collectives:
    def test_barrier(self, n_ranks):
        def body(rank, comm, node):
            yield node.env.timeout(rank * 30_000)
            yield from comm.barrier()
            return node.env.now
        results = run_spmd(n_ranks, body, "fm1")
        assert all(t >= (n_ranks - 1) * 30_000 for t in results.values())

    def test_bcast(self, n_ranks):
        def body(rank, comm, node):
            data = b"fm1-bcast" if rank == 0 else None
            result = yield from comm.bcast(data, 0)
            return result
        results = run_spmd(n_ranks, body, "fm1")
        assert all(value == b"fm1-bcast" for value in results.values())

    def test_allreduce(self, n_ranks):
        def body(rank, comm, node):
            result = yield from comm.allreduce(
                np.array([float(rank + 1)]), np.add)
            return result[0]
        results = run_spmd(n_ranks, body, "fm1")
        expected = sum(range(1, n_ranks + 1))
        assert all(value == expected for value in results.values())

    def test_alltoall(self, n_ranks):
        def body(rank, comm, node):
            chunks = [bytes([rank, dest]) for dest in range(n_ranks)]
            result = yield from comm.alltoall(chunks)
            return result
        results = run_spmd(n_ranks, body, "fm1")
        for rank in range(n_ranks):
            assert results[rank] == [bytes([src, rank])
                                     for src in range(n_ranks)]


class TestBindingGap:
    def test_fm2_binding_much_faster_on_allgather(self):
        """The same allgather of 2 KB per rank on 4 ranks: the FM 2.x
        binding finishes several times sooner."""
        def body(rank, comm, node):
            yield from comm.allgather(bytes(2048))
            return node.env.now
        time_fm1 = max(run_spmd(4, body, "fm1").values())
        time_fm2 = max(run_spmd(4, body, "fm2").values())
        assert time_fm2 < time_fm1 / 3
