"""Host against NIC collectives: MPI's barrier and bcast over FM 2.x
(``upper/mpi/collectives.py``) and the firmware's (``core/rdma/
collectives.py``) keep the same two promises for every group of 2 to 16
nodes and every root.

* A bcast leaves every rank holding the root's bytes.  The payload spans
  three NIC chunks and differs per root, so a chunk that lands at the
  wrong offset, or a stale earlier bcast, shows.
* No rank leaves a barrier before the last rank has entered it.  Entries
  are staggered, and the last rank to enter is a middle one in the first
  barrier and its successor in the second.

One cluster per implementation and group size runs every root's bcast,
then each barrier in a run of its own.
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.rdma import NicCollectives
from repro.hardware.nic import RDMA_MTU
from repro.upper.mpi import build_mpi_world

SIZES = range(2, 17)
PAYLOAD_BYTES = 2 * RDMA_MTU + 100
STAGGER_NS = 3_000


@cache
def payload(root: int) -> bytes:
    return bytes((root * 37 + i) % 251 for i in range(PAYLOAD_BYTES))


def last_in(n: int, flip: bool) -> int:
    """The rank that enters a barrier last."""
    return (n // 2 + flip) % n


def stagger(rank: int, n: int, flip: bool) -> int:
    """Entry delay: distinct per rank, longest for :func:`last_in`."""
    return STAGGER_NS * (n - (rank - last_in(n, flip)) % n)


def host_collectives(cluster: Cluster):
    """Per rank: bcast from one root as a buffer's final bytes, barrier."""
    comms = build_mpi_world(cluster)

    def bcast(rank, root):
        data = yield from comms[rank].bcast(
            payload(root) if rank == root else None, root)
        return data

    def barrier(rank):
        yield from comms[rank].barrier()
    return bcast, barrier


def nic_collectives(cluster: Cluster):
    colls = [NicCollectives(node, cluster.n_nodes) for node in cluster.nodes]

    def bcast(rank, root):
        buf = cluster.node(rank).buffer(
            PAYLOAD_BYTES, fill=payload(root) if rank == root else None)
        yield from colls[rank].bcast(buf, PAYLOAD_BYTES, root)
        return buf.read()

    def barrier(rank):
        yield from colls[rank].barrier()
    return bcast, barrier


@pytest.mark.parametrize("kind", [host_collectives, nic_collectives],
                         ids=["host", "nic"])
def test_every_size_and_root_broadcasts_and_barriers(kind):
    for n in SIZES:
        cluster = Cluster(n, machine=PPRO_FM2, fm_version=2)
        bcast, barrier = kind(cluster)
        received = {}
        entered = {}
        left = {}

        def bcasts(node):
            for root in range(n):
                received[node.node_id, root] = yield from bcast(
                    node.node_id, root)

        def barriers(flip):
            def program(node):
                rank, env = node.node_id, node.env
                yield stagger(rank, n, flip)
                entered[rank, flip] = env.now
                yield from barrier(rank)
                left[rank, flip] = env.now
            return program

        # Separate runs, so that every rank starts its staggered entry at
        # the same instant.
        cluster.run([bcasts] * n)
        for flip in (False, True):
            cluster.run([barriers(flip)] * n)

        for (rank, root), data in received.items():
            assert data == payload(root), (n, rank, root)
        assert len(received) == n * n
        for flip in (False, True):
            last = max(range(n), key=lambda rank: entered[rank, flip])
            assert last == last_in(n, flip)
            first_out = min(left[rank, flip] for rank in range(n))
            assert first_out >= entered[last, flip], (n, flip)
