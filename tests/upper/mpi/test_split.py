"""Sub-communicators: comm.split, rank translation, group isolation."""

import numpy as np
import pytest

from repro.upper.mpi import ANY_SOURCE, build_mpi_world
from repro.upper.mpi.comm import Communicator
from repro.upper.mpi.status import MpiError

from tests.upper.mpi import run_spmd


class TestSplit:
    def test_even_odd_split_identity(self):
        def body(rank, comm, node):
            sub = yield from comm.split(color=rank % 2, key=0)
            return sub.rank, sub.size, sub.group
        results = run_spmd(4, body)
        assert results[0] == (0, 2, [0, 2])
        assert results[2] == (1, 2, [0, 2])
        assert results[1] == (0, 2, [1, 3])
        assert results[3] == (1, 2, [1, 3])

    def test_key_orders_ranks(self):
        def body(rank, comm, node):
            sub = yield from comm.split(color=0, key=-rank)   # reversed
            return sub.rank
        results = run_spmd(3, body)
        assert results == {0: 2, 1: 1, 2: 0}

    def test_undefined_color_returns_none(self):
        def body(rank, comm, node):
            sub = yield from comm.split(color=None if rank == 0 else 1)
            return sub if sub is None else (sub.rank, sub.size)
        results = run_spmd(3, body)
        assert results[0] is None
        assert results[1] == (0, 2)
        assert results[2] == (1, 2)

    def test_p2p_inside_subcommunicator(self):
        def body(rank, comm, node):
            sub = yield from comm.split(color=rank % 2)
            if sub.size < 2:
                return None
            peer = 1 - sub.rank
            data, status = yield from sub.sendrecv(
                bytes([rank]), peer, peer)
            return data[0], status.source
        results = run_spmd(4, body)
        # Even group {0, 2}: node 0 <-> node 2; statuses in *sub* ranks.
        assert results[0] == (2, 1)
        assert results[2] == (0, 0)
        assert results[1] == (3, 1)
        assert results[3] == (1, 0)

    def test_collectives_inside_subcommunicator(self):
        def body(rank, comm, node):
            sub = yield from comm.split(color=rank // 2)
            total = yield from sub.allreduce(np.array([float(rank)]), np.add)
            return total[0]
        results = run_spmd(4, body)
        assert results[0] == results[1] == 1.0     # 0 + 1
        assert results[2] == results[3] == 5.0     # 2 + 3

    def test_messages_do_not_cross_subcommunicators(self):
        def body(rank, comm, node):
            sub = yield from comm.split(color=rank % 2)
            # Everyone sends on their sub with the same tag; wildcards on
            # one sub must never see the other sub's messages.
            peer = 1 - sub.rank
            yield from sub.send(bytes([10 + rank]), peer, tag=5)
            data, status = yield from sub.recv(ANY_SOURCE, 5)
            return data[0]
        results = run_spmd(4, body)
        assert results[0] == 12 and results[2] == 10   # even sub only
        assert results[1] == 13 and results[3] == 11   # odd sub only

    def test_split_of_split(self):
        def body(rank, comm, node):
            half = yield from comm.split(color=rank // 2)     # {0,1} {2,3}
            solo = yield from half.split(color=half.rank)     # singletons
            return solo.size, solo.rank
        results = run_spmd(4, body)
        assert all(value == (1, 0) for value in results.values())

    @pytest.mark.parametrize("collective, args, expected", [
        ("barrier", (), None),
        ("bcast", (b"x",), b"x"),
        ("reduce", (np.arange(4.0),), np.arange(4.0)),
        ("allreduce", (np.arange(4.0),), np.arange(4.0)),
        ("gather", (b"x",), [b"x"]),
        ("scatter", ([b"x"],), b"x"),
        ("allgather", (b"x",), [b"x"]),
        ("alltoall", ([b"x"],), [b"x"]),
        ("scan", (np.arange(4.0),), np.arange(4.0)),
        ("reduce_scatter", (np.arange(4.0),), np.arange(4.0)),
    ])
    def test_every_collective_on_a_singleton_is_the_identity(
            self, collective, args, expected):
        """No special case for one rank: every general loop runs zero
        rounds, sends nothing and takes no simulated time."""
        def body(rank, comm, node):
            solo = yield from comm.split(color=rank)
            before = node.env.now, node.fm.stats_sent_messages
            result = yield from getattr(solo, collective)(*args)
            assert (node.env.now, node.fm.stats_sent_messages) == before
            return result
        for result in run_spmd(2, body).values():
            if isinstance(expected, np.ndarray):
                assert result is not args[0]
                np.testing.assert_array_equal(result, expected)
            else:
                assert result == expected

    def test_wildcard_status_in_sub_ranks(self):
        def body(rank, comm, node):
            sub = yield from comm.split(color=0, key=-rank)   # reversed
            if sub.rank == 0:
                data, status = yield from sub.recv(ANY_SOURCE)
                return status.source
            yield from sub.send(b"x", 0)
            return None
        results = run_spmd(2, body)
        # World rank 1 became sub rank 0; the sender (world 0) is sub 1.
        assert results[1] == 1


class TestGroupValidation:
    def test_member_must_be_in_group(self, fm2_cluster):
        comms = build_mpi_world(fm2_cluster)
        with pytest.raises(MpiError, match="not in group"):
            Communicator(comms[0].engine, context=9, group=[1])

    def test_duplicate_ranks_rejected(self, fm2_cluster):
        comms = build_mpi_world(fm2_cluster)
        with pytest.raises(MpiError, match="duplicate"):
            Communicator(comms[0].engine, context=9, group=[0, 0])

    def test_to_world_bounds(self, fm2_cluster):
        comms = build_mpi_world(fm2_cluster)
        comm = Communicator(comms[0].engine, context=9, group=[0, 1])
        assert comm.to_world(1) == 1
        with pytest.raises(MpiError):
            comm.to_world(5)

    def test_dup_preserves_group(self):
        def body(rank, comm, node):
            sub = yield from comm.split(color=rank % 2)
            clone = sub.dup()
            return clone.group == sub.group and clone.context != sub.context
        results = run_spmd(4, body)
        assert all(results.values())
