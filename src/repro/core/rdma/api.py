"""The host-side RDMA verbs: region registration, one-sided put/get.

Cost model of the two verbs (why one-sided wins at scale):

* ``rdma_put`` — the host pays one per-message descriptor build plus one
  16-byte PIO post; every payload chunk then crosses the bus on the NIC's
  *send DMA engine* (132 MB/s on the PPro testbed) instead of programmed
  I/O (92 MB/s with the CPU held for the duration).  The receive side is
  entirely firmware: match against the registered region, receive DMA,
  done — no handler dispatch, no extract loop, no per-packet host CPU.
* ``rdma_get`` — one descriptor each way; the remote NIC serves the read
  autonomously (region → SRAM → wire), and the local NIC lands response
  chunks straight into the posted buffer.  The host blocks only on the
  completion event.

Completions are consumed from the NIC completion queue with a
predicate-matched scan (:meth:`RdmaEndpoint.wait_completion`), waking on
``Nic.cq_wakeup`` rather than polling on a fixed backoff.

Why one-sided traffic is exempt from FM's credit ledger: a credit is a
promise of receive-region buffer space, and RDMA packets never occupy the
receive region — registration itself pre-reserves the landing memory, so
the only backpressure RDMA traffic needs is the hardware chain (SRAM
slots, link slots, bus arbitration), which all still applies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.core.common import IDLE_WAIT_CAP_NS
from repro.hardware.memory import Buffer
from repro.hardware.nic import RDMA_MTU, RdmaCompletion
from repro.hardware.packet import (HEADER_BYTES, Packet, PacketFlags,
                                   PacketHeader, Site, framed)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

#: Give up on a completion once the NIC has landed and posted nothing for
#: this long — a one-sided op that never completes is a protocol error
#: (dead peer, unmatched region): fail loudly, never hang the simulation.
CQ_STALL_LIMIT_NS = 100_000_000


class RdmaError(Exception):
    """Base class for RDMA verb errors (misuse: bad ranges, bad peers)."""


class RdmaStalledError(RdmaError):
    """A completion wait stalled for longer than :data:`CQ_STALL_LIMIT_NS`.
    The message counts what the waiting NIC saw: corrupt packets it
    dropped, bytes that landed without a completion, unmatched drops."""


class RdmaEndpoint:
    """Per-node RDMA attachment: registration plus the put/get verbs."""

    def __init__(self, node: "Node"):
        self.node = node
        self.env = node.env
        self.cpu = node.cpu
        self.bus = node.bus
        self.nic = node.nic
        self.node_id = node.node_id
        track = f"node{node.node_id}/rdma"
        self._put_site = Site("rdma", "put", track, "dest", "rkey", "bytes")
        self._get_site = Site("rdma", "get", track, "dest", "rkey", "bytes")
        self._next_rkey = 1
        self._next_op_id = 0
        self.stats_puts = 0
        self.stats_put_bytes = 0
        self.stats_gets = 0
        self.stats_get_bytes = 0

    # -- registration -------------------------------------------------------
    def register(self, buffer: Buffer) -> Generator:
        """Pin ``buffer`` and enter it into the NIC match table; returns
        the rkey remote peers address it by."""
        yield from self.cpu.per_message()
        rkey = self._next_rkey
        self._next_rkey += 1
        self.nic.register_region(rkey, buffer)
        return rkey

    def deregister(self, rkey: int) -> Generator:
        yield from self.cpu.call()
        self.nic.deregister_region(rkey)

    # -- verbs ---------------------------------------------------------------
    def rdma_put(self, dest: int, rkey: int, buffer: Buffer, nbytes: int,
                 local_offset: int = 0, remote_offset: int = 0) -> Generator:
        """One-sided write of ``nbytes`` from a local buffer into the
        remote registered region ``rkey`` at ``remote_offset``.

        Returns when the last chunk is handed to the NIC (local
        completion); remote arrival posts a "write" completion on the
        *target* NIC's queue.
        """
        self._check_peer(dest)
        if nbytes < 1:
            raise RdmaError(f"put of {nbytes} B: must move at least 1 B")
        if local_offset + nbytes > buffer.size:
            raise RdmaError(
                f"put of {nbytes} B at offset {local_offset} does not fit "
                f"buffer of {buffer.size} B")
        obs = self.env.obs
        t0 = self.env.now
        # A one-sided post is a fixed-format descriptor write: no gather
        # assembly, no matching state — one call plus a 16-byte PIO, not
        # the full per-message API crossing two-sided sends pay.
        yield from self.cpu.call()
        yield from self.bus.pio_write(self.cpu, HEADER_BYTES)
        op_id = self._alloc_op_id()
        offset = 0
        seq = 0
        last_seq = (nbytes - 1) // RDMA_MTU
        while offset < nbytes:
            chunk = min(RDMA_MTU, nbytes - offset)
            yield from self.nic.tx_dma.transfer(HEADER_BYTES + chunk)
            flags = framed(PacketFlags.RDMA_WRITE, seq == 0, seq == last_seq)
            packet = Packet(
                PacketHeader(src=self.node_id, dest=dest, handler_id=0,
                             msg_id=op_id, seq=seq, msg_bytes=nbytes,
                             flags=flags, rkey=rkey,
                             roffset=remote_offset + offset),
                buffer.view(local_offset + offset, chunk))
            yield from self.nic.submit_rdma(packet)
            offset += chunk
            seq += 1
        self.stats_puts += 1
        self.stats_put_bytes += nbytes
        if obs is not None:
            obs.record(self._put_site, t0, dest, rkey, nbytes)
        return op_id

    def rdma_get(self, dest: int, rkey: int, buffer: Buffer, nbytes: int,
                 local_offset: int = 0, remote_offset: int = 0) -> Generator:
        """One-sided read of ``nbytes`` from the remote region ``rkey``
        into a local buffer; returns after the data has landed."""
        self._check_peer(dest)
        if nbytes < 1:
            raise RdmaError(f"get of {nbytes} B: must move at least 1 B")
        if local_offset + nbytes > buffer.size:
            raise RdmaError(
                f"get of {nbytes} B at offset {local_offset} does not fit "
                f"buffer of {buffer.size} B")
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.call()
        op_id = self._alloc_op_id()
        self.nic.post_rdma_get(op_id, buffer, local_offset, nbytes)
        request = Packet(
            PacketHeader(src=self.node_id, dest=dest, handler_id=0,
                         msg_id=op_id, seq=0, msg_bytes=nbytes,
                         flags=framed(PacketFlags.RDMA_READ_REQ, True, True),
                         rkey=rkey, roffset=remote_offset),
            b"")
        yield from self.bus.pio_write(self.cpu, HEADER_BYTES)
        yield from self.nic.submit_rdma(request)
        yield from self.wait_completion(
            lambda c: c.kind == "read" and c.op_id == op_id)
        self.stats_gets += 1
        self.stats_get_bytes += nbytes
        if obs is not None:
            obs.record(self._get_site, t0, dest, rkey, nbytes)
        return op_id

    # -- completions ----------------------------------------------------------
    def wait_completion(self,
                        match: Callable[[RdmaCompletion], bool]) -> Generator:
        """Consume the first completion satisfying ``match`` (one status
        poll per scan; sleeps on the NIC's completion wakeup between)."""
        return (yield from wait_cq(self, match))

    # -- internals -----------------------------------------------------------
    def _check_peer(self, dest: int) -> None:
        if dest == self.node_id:
            raise RdmaError(f"node {dest} cannot RDMA to itself")
        if dest < 0:
            raise RdmaError(f"bad destination node {dest}")

    def _alloc_op_id(self) -> int:
        op_id = self._next_op_id
        self._next_op_id += 1
        return op_id

    def __repr__(self) -> str:
        return (f"<RdmaEndpoint node={self.node_id} "
                f"puts={self.stats_puts}/{self.stats_put_bytes}B "
                f"gets={self.stats_gets}/{self.stats_get_bytes}B>")


def wait_cq(owner, match: Callable[[RdmaCompletion], bool]) -> Generator:
    """Shared completion wait: poll-scan the queue, sleep on ``cq_wakeup``
    (capped), fail loudly once stalled past the limit.  ``owner`` provides
    ``env`` / ``cpu`` / ``nic`` (RdmaEndpoint and NicCollectives both do).

    The sleep is :meth:`FmEndpoint.idle_wait`'s, on the completion queue:
    one event, woken by the next post or by the same
    :data:`IDLE_WAIT_CAP_NS` timer (the wake-up is one-shot, so the scan
    is repeated on a bounded cadence).  The stall clock is
    :meth:`Progress.wait_until`'s, restarted by any scan that finds
    ``nic.offload_progress`` moved, so a put still landing never stalls.
    """
    env = owner.env
    nic = owner.nic
    t0 = env.now
    progress = nic.offload_progress
    while True:
        yield from owner.cpu.poll()
        cq = nic.cq
        for i, completion in enumerate(cq):
            if match(completion):
                del cq[i]
                return completion
        if nic.offload_progress != progress:
            progress = nic.offload_progress
            t0 = env.now
        elif env.now - t0 > CQ_STALL_LIMIT_NS:
            # Name what this NIC saw go wrong; guess at what it cannot see
            # (a dead peer or link, an unmatched region there) only if nothing.
            seen = (nic.corrupt_offload_packets, nic.corrupt_control_packets,
                    nic.landed_without_completion(), nic.rdma_unmatched)
            guess = "" if any(seen) else "dead peer or unmatched region?; "
            raise RdmaStalledError(
                f"node {nic.node_id} waited {env.now - t0} ns for an RDMA "
                f"completion ({guess}corrupt offload packets {seen[0]}, "
                f"corrupt control packets {seen[1]}, {seen[2]} B landed "
                f"without a completion, unmatched drops {seen[3]}); "
                + "; ".join([f"cq depth {len(cq)}", *nic.collective_waits()]))
        yield env.first_of(nic.cq_wakeup(), IDLE_WAIT_CAP_NS)
