"""Collectives: correctness against numpy references, across sizes/roots."""

import numpy as np
import pytest

from repro.upper.mpi.status import MpiError

from tests.upper.mpi import run_spmd


@pytest.mark.parametrize("n_ranks", [2, 3, 4, 5])
class TestBarrier:
    def test_barrier_synchronises(self, n_ranks):
        def body(rank, comm, node):
            # Stagger arrival; everyone must leave after the last arriver.
            yield node.env.timeout(rank * 50_000)
            yield from comm.barrier()
            return node.env.now
        results = run_spmd(n_ranks, body)
        last_arrival = (n_ranks - 1) * 50_000
        assert all(t >= last_arrival for t in results.values())


@pytest.mark.parametrize("n_ranks", [2, 3, 4])
@pytest.mark.parametrize("root", [0, 1])
class TestBcast:
    def test_bcast_delivers_root_data(self, n_ranks, root):
        payload = b"broadcast-payload" * 10
        def body(rank, comm, node):
            data = payload if rank == root else None
            result = yield from comm.bcast(data, root)
            return result
        results = run_spmd(n_ranks, body)
        assert all(value == payload for value in results.values())


class TestBcastValidation:
    def test_root_must_supply_data(self):
        def body(rank, comm, node):
            result = yield from comm.bcast(None, 0)
            return result
        with pytest.raises(MpiError, match="root"):
            run_spmd(2, body)

    def test_bad_root(self):
        def body(rank, comm, node):
            result = yield from comm.bcast(b"x", 9)
            return result
        with pytest.raises(MpiError, match="root"):
            run_spmd(2, body)


@pytest.mark.parametrize("n_ranks", [2, 3, 4])
@pytest.mark.parametrize("op,reference", [
    (np.add, np.sum), (np.maximum, np.max), (np.minimum, np.min),
])
class TestReduce:
    def test_reduce_matches_numpy(self, n_ranks, op, reference):
        contributions = [np.arange(6, dtype=np.float64) * (r + 1) - r
                         for r in range(n_ranks)]
        def body(rank, comm, node):
            result = yield from comm.reduce(contributions[rank], op, root=0)
            return result
        results = run_spmd(n_ranks, body)
        expected = reference(np.stack(contributions), axis=0)
        assert np.allclose(results[0], expected)
        assert all(results[r] is None for r in range(1, n_ranks))


@pytest.mark.parametrize("n_ranks", [2, 3, 4, 5, 8])
class TestAllreduce:
    def test_allreduce_sum_everywhere(self, n_ranks):
        def body(rank, comm, node):
            local = np.full(4, float(rank + 1))
            result = yield from comm.allreduce(local, np.add)
            return result
        results = run_spmd(n_ranks, body)
        expected = np.full(4, sum(range(1, n_ranks + 1)), dtype=float)
        for rank in range(n_ranks):
            assert np.allclose(results[rank], expected)

    def test_allreduce_max(self, n_ranks):
        def body(rank, comm, node):
            local = np.array([float(rank), float(-rank)])
            result = yield from comm.allreduce(local, np.maximum)
            return result
        results = run_spmd(n_ranks, body)
        expected = np.array([float(n_ranks - 1), 0.0])
        for value in results.values():
            assert np.allclose(value, expected)


@pytest.mark.parametrize("n_ranks", [2, 3])
class TestPastOneMebibyte:
    """Collectives receive with no bound: ``recv`` used to default to
    1 MiB, so these died with "truncates receive posted for 1048576"."""

    def test_allreduce(self, n_ranks):
        def body(rank, comm, node):
            local = np.full((1 << 19) + 4, rank + 1, np.float32)
            result = yield from comm.allreduce(local)
            return result
        results = run_spmd(n_ranks, body)
        total = sum(range(1, n_ranks + 1))
        for value in results.values():
            assert value.nbytes == (2 << 20) + 16 and (value == total).all()

    def test_bcast(self, n_ranks):
        payload = bytes(range(256)) * (1 << 13) + b"sixteen more !!!"
        def body(rank, comm, node):
            result = yield from comm.bcast(payload if rank == 0 else None)
            return result
        results = run_spmd(n_ranks, body)
        assert all(value == payload for value in results.values())


@pytest.mark.parametrize("n_ranks", [2, 4])
@pytest.mark.parametrize("root", [0, 1])
class TestGatherScatter:
    def test_gather_collects_in_rank_order(self, n_ranks, root):
        def body(rank, comm, node):
            result = yield from comm.gather(bytes([rank]) * 3, root)
            return result
        results = run_spmd(n_ranks, body)
        assert results[root] == [bytes([r]) * 3 for r in range(n_ranks)]
        assert all(results[r] is None for r in range(n_ranks) if r != root)

    def test_scatter_distributes(self, n_ranks, root):
        chunks = [f"chunk-{i}".encode() for i in range(n_ranks)]
        def body(rank, comm, node):
            data = chunks if rank == root else None
            result = yield from comm.scatter(data, root)
            return result
        results = run_spmd(n_ranks, body)
        assert results == {r: chunks[r] for r in range(n_ranks)}


class TestScatterValidation:
    def test_wrong_chunk_count(self):
        def body(rank, comm, node):
            data = [b"only-one"] if rank == 0 else None
            result = yield from comm.scatter(data, 0)
            return result
        with pytest.raises(MpiError, match="chunks"):
            run_spmd(2, body)


@pytest.mark.parametrize("n_ranks", [2, 3, 4, 6])
class TestAllgather:
    def test_every_rank_gets_all_pieces(self, n_ranks):
        def body(rank, comm, node):
            result = yield from comm.allgather(bytes([rank + 65]) * 2)
            return result
        results = run_spmd(n_ranks, body)
        expected = [bytes([r + 65]) * 2 for r in range(n_ranks)]
        for value in results.values():
            assert value == expected


@pytest.mark.parametrize("n_ranks", [2, 3, 4, 8])
class TestAlltoall:
    def test_personalised_exchange(self, n_ranks):
        def body(rank, comm, node):
            chunks = [f"{rank}->{dest}".encode() for dest in range(n_ranks)]
            result = yield from comm.alltoall(chunks)
            return result
        results = run_spmd(n_ranks, body)
        for rank in range(n_ranks):
            assert results[rank] == [f"{src}->{rank}".encode()
                                     for src in range(n_ranks)]

    def test_wrong_chunk_count_rejected(self, n_ranks):
        def body(rank, comm, node):
            result = yield from comm.alltoall([b"x"])
            return result
        with pytest.raises(MpiError):
            run_spmd(n_ranks, body)


class TestComposition:
    def test_back_to_back_collectives_do_not_cross_match(self):
        """Consecutive collectives of the same shape must stay separate."""
        def body(rank, comm, node):
            first = yield from comm.allreduce(np.array([float(rank)]), np.add)
            second = yield from comm.allreduce(np.array([float(rank * 10)]),
                                               np.add)
            return first[0], second[0]
        results = run_spmd(4, body)
        for first, second in results.values():
            assert first == 6.0       # 0+1+2+3
            assert second == 60.0

    def test_collectives_mixed_with_p2p(self):
        def body(rank, comm, node):
            if rank == 0:
                yield from comm.send(b"side-channel", 1, tag=77)
            total = yield from comm.allreduce(np.array([1.0]), np.add)
            if rank == 1:
                data, _ = yield from comm.recv(0, 77)
                assert data == b"side-channel"
            return total[0]
        results = run_spmd(3, body)
        assert all(value == 3.0 for value in results.values())
