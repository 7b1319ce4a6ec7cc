"""scan and reduce_scatter collectives."""

import numpy as np
import pytest

from repro.upper.mpi.status import MpiError

from tests.upper.mpi import run_spmd


@pytest.mark.parametrize("n_ranks", [2, 3, 4, 5])
class TestScan:
    def test_inclusive_prefix_sum(self, n_ranks):
        def body(rank, comm, node):
            result = yield from comm.scan(np.array([float(rank + 1)]), np.add)
            return result[0]
        results = run_spmd(n_ranks, body)
        for rank in range(n_ranks):
            assert results[rank] == sum(range(1, rank + 2))

    def test_scan_max(self, n_ranks):
        values = [3.0, 1.0, 4.0, 1.0, 5.0][:n_ranks]
        def body(rank, comm, node):
            result = yield from comm.scan(np.array([values[rank]]),
                                          np.maximum)
            return result[0]
        results = run_spmd(n_ranks, body)
        for rank in range(n_ranks):
            assert results[rank] == max(values[: rank + 1])

    def test_scan_vector(self, n_ranks):
        def body(rank, comm, node):
            local = np.array([float(rank), float(rank * 10)])
            result = yield from comm.scan(local, np.add)
            return result
        results = run_spmd(n_ranks, body)
        for rank in range(n_ranks):
            expected = np.array([sum(range(rank + 1)),
                                 10 * sum(range(rank + 1))], dtype=float)
            assert np.allclose(results[rank], expected)


@pytest.mark.parametrize("n_ranks", [2, 4])
class TestReduceScatter:
    def test_sum_blocks(self, n_ranks):
        block = 3
        def body(rank, comm, node):
            local = np.arange(n_ranks * block, dtype=np.float64) * (rank + 1)
            result = yield from comm.reduce_scatter(local, np.add)
            return result
        results = run_spmd(n_ranks, body)
        factor = sum(range(1, n_ranks + 1))
        full = np.arange(n_ranks * block, dtype=np.float64) * factor
        for rank in range(n_ranks):
            assert np.allclose(results[rank],
                               full[rank * block:(rank + 1) * block])

    def test_2d_blocks(self, n_ranks):
        def body(rank, comm, node):
            local = np.full((n_ranks * 2, 3), float(rank + 1))
            result = yield from comm.reduce_scatter(local, np.add)
            return result
        results = run_spmd(n_ranks, body)
        expected_value = sum(range(1, n_ranks + 1))
        for rank in range(n_ranks):
            assert results[rank].shape == (2, 3)
            assert np.all(results[rank] == expected_value)


class TestReduceScatterValidation:
    def test_indivisible_leading_dim_rejected(self):
        def body(rank, comm, node):
            result = yield from comm.reduce_scatter(np.zeros(5), np.add)
            return result
        with pytest.raises(MpiError, match="divisible"):
            run_spmd(2, body)
