"""Host bindings for the NIC-offloaded collectives.

Each node holds one :class:`NicCollectives` instance; calls are SPMD (all
nodes make the same sequence of collective calls), which is what keeps the
per-instance ``coll_id`` counters aligned across the cluster with no
coordination traffic — the same convention the MPI layer's communicators
use for tags.

The host's entire cost per collective is one descriptor build + one
16-byte PIO post + one completion wait: every protocol round (barrier
dissemination, broadcast tree forwarding) runs NIC-to-NIC in the firmware
engines (`hardware/nic.py`), which is why NIC collectives scale with
``collective_step_ns`` and wire hops while host-level collectives scale
with the full per-message software stack.  The host-level fallbacks this
is compared against are the MPI collectives in
:mod:`repro.upper.mpi.collectives`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.core.rdma.api import wait_cq
from repro.hardware.memory import Buffer
from repro.hardware.packet import HEADER_BYTES, Site

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node


class NicCollectives:
    """One node's handle on the NIC collective table."""

    def __init__(self, node: "Node", n_nodes: int):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if node.node_id >= n_nodes:
            raise ValueError(
                f"node {node.node_id} outside collective group of {n_nodes}")
        self.node = node
        self.env = node.env
        self.cpu = node.cpu
        self.bus = node.bus
        self.nic = node.nic
        self.node_id = node.node_id
        track = f"node{node.node_id}/rdma"
        self._barrier_site = Site("rdma", "nic_barrier", track, "coll")
        self._bcast_site = Site("rdma", "nic_bcast", track, "coll", "root", "bytes")
        self.n_nodes = n_nodes
        self._next_coll_id = 0
        self.stats_barriers = 0
        self.stats_bcasts = 0

    def barrier(self) -> Generator:
        """Block until every node in the group has entered this barrier."""
        coll_id = self._alloc()
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.per_message()
        yield from self.bus.pio_write(self.cpu, HEADER_BYTES)
        self.nic.post_barrier(coll_id, self.n_nodes)
        yield from wait_cq(
            self, lambda c: c.kind == "barrier" and c.op_id == coll_id)
        self.stats_barriers += 1
        if obs is not None:
            obs.record(self._barrier_site, t0, coll_id)

    def bcast(self, buffer: Buffer, nbytes: int, root: int) -> Generator:
        """Broadcast ``nbytes`` from ``root``'s buffer into everyone
        else's; returns when the local copy is complete (root: when the
        payload has fanned out to its subtree children)."""
        if not 0 <= root < self.n_nodes:
            raise ValueError(f"root {root} outside group of {self.n_nodes}")
        coll_id = self._alloc()
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.per_message()
        yield from self.bus.pio_write(self.cpu, HEADER_BYTES)
        self.nic.post_bcast(coll_id, root, self.n_nodes, buffer, nbytes)
        yield from wait_cq(
            self, lambda c: c.kind == "bcast" and c.op_id == coll_id)
        self.stats_bcasts += 1
        if obs is not None:
            obs.record(self._bcast_site, t0, coll_id, root, nbytes)

    def _alloc(self) -> int:
        coll_id = self._next_coll_id
        self._next_coll_id += 1
        return coll_id

    def __repr__(self) -> str:
        return (f"<NicCollectives node={self.node_id}/{self.n_nodes} "
                f"barriers={self.stats_barriers} bcasts={self.stats_bcasts}>")
