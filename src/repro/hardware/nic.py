"""The network interface: a LANai-style co-processor model.

The NIC has its own processor (the firmware loops run concurrently with the
host CPU) and staging SRAM in both directions:

* **Send:** the host pushes a fully formed packet into the bounded transmit
  SRAM (``submit``; the PIO or DMA cost of getting the bytes across the I/O
  bus is charged by the caller — the FM layer — *before* the slot is
  consumed).  The transmit firmware loop drains SRAM onto the link.
* **Receive:** the link delivers into bounded receive SRAM; the receive
  firmware loop DMAs each data packet across the bus into the bounded
  **host receive region**, where ``FM_extract`` finds it.
* **Control traffic** (credit returns) is absorbed by the firmware itself
  and posted to a host-visible credit mailbox without consuming receive
  region slots — mirroring how real FM's LANai control program handles flow
  control autonomously so that credits can never be blocked behind data.
  A corrupt control packet (fault injection only) is dropped and counted
  (``corrupt_control_packets``), never absorbed: crediting from a damaged
  count would silently corrupt the sender's flow-control ledger.

Every bounded store in the chain back-pressures: a receiver that stops
extracting eventually stalls the sender's PIO, never dropping a packet.

Staging is zero-copy at the host-Python level: the SRAM stores and the
receive region hold :class:`Packet` references (whose payloads are immutable
``bytes``), never byte copies — all data-movement *cost* (PIO, DMA, wire
time) is charged by the bus/DMA/link models as simulated time.

**RDMA extension (one-sided put/get).**  The firmware keeps a table of
host-registered memory regions (``register_region``).  An incoming
``RDMA_WRITE`` packet is matched against the table and DMA'd straight into
the registered buffer at the packet's offset — no handler dispatch, no
receive-region slot, no credit: registration itself is the landing-space
guarantee that FM's credit ledger otherwise provides, so one-sided traffic
is exempt from it.  An ``RDMA_READ_REQ`` makes the firmware serve the read
autonomously: it DMAs the region across the bus into SRAM (on the NIC's
own send-side DMA engine, contending at the bus arbiter like any other
master) and injects ``RDMA_READ_RESP`` packets with no host involvement at
either end.  Completions are posted to a host-visible queue (``cq``) with
an event wakeup (``cq_wakeup``), mirroring the credit mailbox pattern.

**NIC-offloaded collectives.**  A small per-NIC collective table
(``post_barrier`` / ``post_bcast``) is serviced by firmware engine
processes: barrier runs dissemination rounds and broadcast a binomial
forwarding tree entirely NIC-to-NIC — the host pays one descriptor post
and one completion wait, so collective latency scales with firmware step
cost and wire hops, not with host per-message software overhead.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.simkernel.store import EMPTY, Store

from repro.hardware.bus import IoBus
from repro.hardware.dma import DmaEngine
from repro.hardware.link import Link
from repro.hardware.memory import Buffer
from repro.hardware.packet import (HEADER_BYTES, RX_HOP, TX_HOP, Packet,
                                   PacketFlags, PacketHeader, Site, framed,
                                   _and, _COLLECTIVE, _CONTROL, _RDMA,
                                   _RDMA_READ_REQ, _RDMA_WRITE)
from repro.hardware.params import NicParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment
    from repro.hardware.fabric import Fabric

#: Payload bytes per RDMA / collective data packet (the Myrinet-style MTU
#: the firmware packetises at; same as FM 2.x's max packet payload).
RDMA_MTU: int = 1024

#: Collective opcodes (carried in ``header.handler_id`` of COLLECTIVE
#: packets — firmware traffic never dispatches host handlers).
COLL_BARRIER: int = 1
COLL_BCAST: int = 2


class RdmaCompletion:
    """One host-visible completion queue entry."""

    __slots__ = ("kind", "peer", "rkey", "op_id", "nbytes", "time_ns")

    def __init__(self, kind: str, peer: int, rkey: int, op_id: int,
                 nbytes: int, time_ns: int):
        self.kind = kind        # "write" | "read" | "barrier" | "bcast"
        self.peer = peer        # remote node (or root for collectives)
        self.rkey = rkey
        self.op_id = op_id      # msg_id of the op / coll_id of the collective
        self.nbytes = nbytes
        self.time_ns = time_ns

    def __repr__(self) -> str:
        return (f"<RdmaCompletion {self.kind} peer={self.peer} "
                f"op={self.op_id} {self.nbytes}B @{self.time_ns}ns>")


class _PendingGet:
    """Requester-side state for one outstanding RDMA read."""

    __slots__ = ("buffer", "local_offset", "nbytes", "received")

    def __init__(self, buffer: Buffer, local_offset: int, nbytes: int):
        self.buffer = buffer
        self.local_offset = local_offset
        self.nbytes = nbytes
        self.received = 0


class _CollState:
    """One collective table entry (created on post *or* first arrival)."""

    __slots__ = ("coll_id", "op", "posted", "n_nodes", "root", "buffer",
                 "nbytes", "received", "arrived", "round_waiters", "pending",
                 "data_waiters", "waiting")

    def __init__(self, coll_id: int):
        self.coll_id = coll_id
        self.op: Optional[int] = None
        self.posted = False
        self.n_nodes = 0
        self.root = 0
        self.buffer: Optional[Buffer] = None
        self.nbytes = 0
        self.received = 0                     # bcast, non-root: bytes landed
        self.arrived: dict[int, int] = {}     # barrier: round -> count
        self.round_waiters: dict[int, list] = {}
        self.pending: deque[Packet] = deque()  # bcast: undelivered chunks
        self.data_waiters: list = []
        self.waiting: tuple = ()  # what the engine waits on: format, args


def _binomial_children(rel: int, n: int) -> list[int]:
    """Children of relative rank ``rel`` in the binomial broadcast tree."""
    step = 1
    while step <= rel:
        step <<= 1
    children = []
    while rel + step < n:
        children.append(rel + step)
        step <<= 1
    return children


class Nic:
    """One host's network interface."""

    def __init__(self, env: "Environment", params: NicParams, bus: IoBus,
                 node_id: int, name: str = ""):
        self.env = env
        self.params = params
        self.bus = bus
        self.node_id = node_id
        self.name = name or f"nic{node_id}"
        self._submit_label = f"{self.name}.submit"
        self._inject_label = f"{self.name}.inject"
        self._dma_done_label = f"{self.name}.dma_done"
        self._fw_inject_label = f"{self.name}.fw_inject"
        self._rdma_write_label = f"{self.name}.rdma_write"
        self._rdma_read_land_label = f"{self.name}.rdma_read_land"
        # Span sites, built once (a span site formats nothing).
        self._tx_track = tx = f"node{node_id}/nic.tx"
        self._rx_track = rx = f"node{node_id}/nic.rx"
        coll = f"node{node_id}/nic.coll"
        self._control_drop_site = Site("nic", "corrupt_control_drop", rx,
                                       "src", "credits")
        self._absorb_site = Site("nic", "credit_absorb", rx, "src", "credits")
        self._rdma_drop_site = Site("nic", "corrupt_rdma_drop", rx, "src", "seq")
        self._write_site = Site("nic", "rdma_write", rx, "src", "rkey", "seq", "bytes")
        self._read_req_site = Site("nic", "rdma_read_req", rx, "src", "rkey", "bytes")
        self._read_resp_site = Site("nic", "rdma_read_resp", rx,
                                    "src", "rkey", "seq", "bytes")
        self._read_serve_site = Site("nic", "rdma_read_serve", tx,
                                     "dest", "rkey", "bytes")
        self._coll_rx_site = Site("nic", "collective_rx", rx, "src", "coll", "step")
        self._barrier_site = Site("nic", "barrier", coll, "coll", "rounds")
        self._bcast_site = Site("nic", "bcast", coll, "coll", "root", "bytes")
        # The observer whose ``nic.recv_region_depth`` histogram is held,
        # and that histogram's ``record`` (see ``_rx_firmware``).
        self._depth_obs = None
        self._depth_record = None
        # Send path: host -> tx SRAM -> link.
        self.tx_sram: Store = Store(env, capacity=params.sram_packet_slots,
                                    name=f"{self.name}.tx_sram")
        self.tx_link: Optional[Link] = None
        # Receive path: link -> rx SRAM -> (DMA) -> host receive region.
        self.rx_sram: Store = Store(env, capacity=params.sram_packet_slots,
                                    name=f"{self.name}.rx_sram")
        self.recv_region: Store = Store(env, capacity=params.recv_region_slots,
                                        name=f"{self.name}.recv_region")
        self.recv_dma = DmaEngine(env, bus, name=f"{self.name}.rxdma")
        # Send-side DMA engine: pulls registered host memory into SRAM for
        # RDMA puts, served reads and root broadcasts (contending with
        # recv DMA and host PIO at the bus arbiter).
        self.tx_dma = DmaEngine(env, bus, name=f"{self.name}.txdma")
        #: Host-visible credit mailbox: peer node id -> credits returned.
        self.credit_mailbox: dict[int, int] = {}
        #: Processes sleeping until the next receive-region deposit (see
        #: :meth:`rx_wakeup`); flushed by the rx firmware after each put.
        self._rx_waiters: list = []
        self._started = False
        self.sent_packets: int = 0
        self.received_packets: int = 0
        self.control_packets: int = 0
        self.corrupt_control_packets: int = 0
        # -- RDMA / collective state ------------------------------------
        self.fabric: Optional["Fabric"] = None
        #: rkey -> registered host buffer (the firmware's match table).
        self.regions: dict[int, Buffer] = {}
        self._pending_gets: dict[int, _PendingGet] = {}
        #: Host-visible completion queue (writes that landed here, reads
        #: that finished here, collectives that completed here).
        self.cq: deque[RdmaCompletion] = deque()
        self._cq_waiters: list = []
        self._colls: dict[int, _CollState] = {}
        #: (src, msg_id) -> bytes landed of a put not yet landed in full.
        self._open_writes: dict[tuple[int, int], int] = {}
        self.rdma_write_packets: int = 0
        self.rdma_write_bytes: int = 0
        self.rdma_reads_served: int = 0
        self.rdma_read_bytes: int = 0
        self.collective_packets: int = 0
        #: RDMA/collective packets dropped for an unregistered or
        #: out-of-range region — the one-sided analogue of a transport
        #: error (reports gate on this staying 0).
        self.rdma_unmatched: int = 0
        #: Corrupt RDMA/collective packets dropped (fault injection only).
        self.corrupt_offload_packets: int = 0
        #: One-sided chunks landed here plus completions posted here: it
        #: only grows, and a completion wait that sees it move is not
        #: stalled (:func:`repro.core.rdma.api.wait_cq`).
        self.offload_progress: int = 0

    # -- wiring ------------------------------------------------------------
    def connect_tx(self, link: Link) -> None:
        if self.tx_link is not None:
            raise RuntimeError(f"{self.name!r} tx already connected")
        self.tx_link = link

    def attach_fabric(self, fabric: "Fabric") -> None:
        """Give the firmware a route source for self-originated packets."""
        self.fabric = fabric

    def start(self) -> None:
        if self.tx_link is None:
            raise RuntimeError(f"{self.name!r} started before connect_tx()")
        if self._started:
            raise RuntimeError(f"{self.name!r} started twice")
        self._started = True
        self.env.process(self._tx_firmware(), name=f"{self.name}.txfw")
        self.env.process(self._rx_firmware(), name=f"{self.name}.rxfw")

    # -- host-side API ---------------------------------------------------------
    def submit(self, packet: Packet):
        """Host hands a packet to the NIC (blocks while tx SRAM is full).

        The caller must already have charged the bus cost of moving
        ``packet.wire_bytes`` into SRAM (PIO via ``bus.pio_write`` for FM).
        """
        packet.stamp(self._submit_label, self.env.now)
        if not self.tx_sram.put_now(packet):
            yield self.tx_sram.put(packet)

    def take_credits(self, peer: int) -> int:
        """Drain and return credits posted by the firmware for ``peer``."""
        credits = self.credit_mailbox.get(peer, 0)
        if credits:
            self.credit_mailbox[peer] = 0
        return credits

    def rx_wakeup(self):
        """An event triggered at the next data-packet deposit into the host
        receive region.

        Upper layers that would otherwise poll ``FM_extract`` on a fixed
        backoff (sockets, RPC loops) wait on this instead: the process
        sleeps until the rx firmware actually lands a packet, consuming no
        simulated time spinning.  Every waiter registered at deposit time is
        woken (deposits are rare relative to waits, and each waiter
        re-checks its own condition before sleeping again), so the event is
        one-shot: re-register before every wait.
        """
        event = self.env.event()
        self._rx_waiters.append(event)
        return event

    # -- host-side RDMA API ------------------------------------------------
    def register_region(self, rkey: int, buffer: Buffer) -> None:
        """Enter a host buffer into the firmware match table (the cost of
        the registration call is charged by the RDMA endpoint)."""
        if rkey in self.regions:
            raise ValueError(f"{self.name!r}: rkey {rkey} already registered")
        buffer.pinned = True
        self.regions[rkey] = buffer

    def deregister_region(self, rkey: int) -> None:
        if rkey not in self.regions:
            raise KeyError(f"{self.name!r}: rkey {rkey} not registered")
        del self.regions[rkey]

    def post_rdma_get(self, get_id: int, buffer: Buffer, local_offset: int,
                      nbytes: int) -> None:
        """Arm requester-side state for one RDMA read before the request
        packet is injected."""
        if get_id in self._pending_gets:
            raise ValueError(f"{self.name!r}: get {get_id} already pending")
        self._pending_gets[get_id] = _PendingGet(buffer, local_offset, nbytes)

    def submit_rdma(self, packet: Packet):
        """Host hands an RDMA packet to the NIC (route stamped here: the
        one-sided path has no FM endpoint in the loop).  The caller charges
        the descriptor PIO and the payload's send-side DMA."""
        self._stamp_route(packet)
        return self.submit(packet)

    def cq_wakeup(self):
        """An event triggered at the next completion-queue post (same
        one-shot contract as :meth:`rx_wakeup`)."""
        event = self.env.event()
        self._cq_waiters.append(event)
        return event

    # -- host-side collective API -------------------------------------------
    def post_barrier(self, coll_id: int, n_nodes: int) -> None:
        """Arm the NIC barrier state machine for one dissemination barrier
        over nodes ``0..n_nodes-1`` (descriptor PIO charged by the caller)."""
        state = self._coll_state(coll_id, COLL_BARRIER)
        state.posted = True
        state.n_nodes = n_nodes
        self.env.process(self._barrier_engine(state),
                         name=f"{self.name}.coll.barrier{coll_id}")

    def post_bcast(self, coll_id: int, root: int, n_nodes: int,
                   buffer: Buffer, nbytes: int) -> None:
        """Arm the NIC broadcast engine: on the root, ``buffer`` is the
        payload source; elsewhere it is the landing region."""
        if nbytes < 1:
            raise ValueError(f"bcast of {nbytes} B: must move at least 1 B")
        if nbytes > buffer.size:
            raise ValueError(
                f"bcast of {nbytes} B does not fit buffer of {buffer.size} B")
        state = self._coll_state(coll_id, COLL_BCAST)
        state.posted = True
        state.n_nodes = n_nodes
        state.root = root
        state.buffer = buffer
        state.nbytes = nbytes
        self.env.process(self._bcast_engine(state),
                         name=f"{self.name}.coll.bcast{coll_id}")

    def _coll_state(self, coll_id: int, op: Optional[int] = None) -> _CollState:
        state = self._colls.get(coll_id)
        if state is None:
            state = _CollState(coll_id)
            self._colls[coll_id] = state
        if op is not None:
            if state.op is not None and state.op != op:
                raise ValueError(
                    f"{self.name!r}: collective {coll_id} op mismatch "
                    f"({state.op} vs {op}) — hosts disagree on the sequence")
            state.op = op
        return state

    def collective_waits(self) -> list[str]:
        """What each collective engine on this NIC waits on, for a stall
        message: a barrier its round and peer, a broadcast its parent."""
        return [state.waiting[0] % state.waiting[1:]
                for state in self._colls.values() if state.waiting]

    # -- firmware internals --------------------------------------------------
    def _stamp_route(self, packet: Packet) -> None:
        if self.fabric is None:
            raise RuntimeError(
                f"{self.name!r}: RDMA/collective traffic needs a fabric "
                f"(attach the NIC before use)")
        self.fabric.stamp_route(packet)

    def landed_without_completion(self) -> int:
        """Bytes one-sided ops have written into this node's memory that no
        completion here accounts for yet: puts whose last chunk has not
        landed, gets still short of their length, and broadcasts still
        short of theirs."""
        return (sum(self._open_writes.values())
                + sum(get.received for get in self._pending_gets.values())
                + sum(state.received for state in self._colls.values()))

    def _post_completion(self, kind: str, peer: int, rkey: int, op_id: int,
                         nbytes: int) -> None:
        self.cq.append(RdmaCompletion(kind, peer, rkey, op_id, nbytes,
                                      self.env.now))
        self.offload_progress += 1
        if self._cq_waiters:
            waiters, self._cq_waiters = self._cq_waiters, []
            for event in waiters:
                event.wake()

    def _fw_inject(self, packet: Packet):
        """Firmware-originated send: straight into tx SRAM (the payload is
        already NIC-side; the tx firmware loop charges its per-packet cost)."""
        self._stamp_route(packet)
        packet.stamp(self._fw_inject_label, self.env.now)
        if not self.tx_sram.put_now(packet):
            yield self.tx_sram.put(packet)

    # -- firmware loops -----------------------------------------------------------
    def _tx_firmware(self):
        assert self.tx_link is not None
        while True:
            packet: Packet = self.tx_sram.get_now()
            if packet is EMPTY:
                packet = yield self.tx_sram.get()
            t0 = self.env.now
            yield self.params.firmware_send_ns
            faults = self.env.faults
            if faults is not None:
                stall = faults.nic_stall_ns(self.node_id, self.name, "tx")
                if stall:
                    yield stall
            self.sent_packets += 1
            packet.stamp(self._inject_label, self.env.now, TX_HOP, t0,
                         self._tx_track)
            if not self.tx_link.ingress.put_now(packet):
                yield self.tx_link.ingress.put(packet)

    def _rx_firmware(self):
        while True:
            packet: Packet = self.rx_sram.get_now()
            if packet is EMPTY:
                packet = yield self.rx_sram.get()
            obs = self.env.obs
            t0 = self.env.now
            yield self.params.firmware_recv_ns
            faults = self.env.faults
            if faults is not None:
                stall = faults.nic_stall_ns(self.node_id, self.name, "rx")
                if stall:
                    yield stall
            flags = packet.header.flags
            if _and(flags, _CONTROL):
                if not packet.crc_ok():
                    # A damaged credit return must be discarded, not
                    # absorbed: its count is untrustworthy, and crediting
                    # from it would silently skew the sender's ledger.
                    # Credits it carried are lost — FM's flow control has
                    # no recovery for that, by design (§3.1).
                    self.corrupt_control_packets += 1
                    if obs is not None:
                        obs.record(self._control_drop_site, t0,
                                   packet.header.src,
                                   packet.header.credit_return)
                else:
                    # Credit return: update the mailbox, consume no host slot.
                    peer = packet.header.src
                    self.credit_mailbox[peer] = (self.credit_mailbox.get(
                        peer, 0) + packet.header.credit_return)
                    self.control_packets += 1
                    if obs is not None:
                        obs.record(self._absorb_site, t0, peer,
                                   packet.header.credit_return,
                                   ctx=packet.trace)
            elif _and(flags, _RDMA):
                yield from self._rx_rdma(packet, t0)
            elif _and(flags, _COLLECTIVE):
                self._rx_collective(packet, t0)
            else:
                yield from self.recv_dma.transfer(packet.wire_bytes)
                self.received_packets += 1
                packet.stamp(self._dma_done_label, self.env.now, RX_HOP, t0,
                             self._rx_track)
                if obs is not None:
                    if obs is not self._depth_obs:
                        # Keyed on the observer object: one may be
                        # attached late, or replaced.
                        self._depth_obs = obs
                        self._depth_record = obs.metrics.histogram(
                            "nic.recv_region_depth", nic=self.name).record
                    self._depth_record(self.recv_region.level)
                if not self.recv_region.put_now(packet):
                    yield self.recv_region.put(packet)
                if self._rx_waiters:
                    waiters, self._rx_waiters = self._rx_waiters, []
                    for event in waiters:
                        event.wake()
            # Every hop is stamped: the packet leaves the hardware here.
            if obs is not None:
                obs.hops(packet)

    # -- RDMA receive paths ---------------------------------------------------
    def _rx_rdma(self, packet: Packet, t0: int):
        """Match an RDMA packet and drive the DMA engine directly — the
        one-sided bypass: no handler, no receive-region slot, no credit."""
        header = packet.header
        obs = self.env.obs
        yield self.params.rdma_match_ns
        if not packet.crc_ok():
            # Same policy as corrupt control: a damaged one-sided packet
            # must never touch registered memory — drop and count.
            self.corrupt_offload_packets += 1
            if obs is not None:
                obs.record(self._rdma_drop_site, t0, header.src, header.seq)
            return
        flags = header.flags
        if _and(flags, _RDMA_WRITE):
            region = self.regions.get(header.rkey)
            if region is None or header.roffset + len(packet.payload) > region.size:
                self.rdma_unmatched += 1
                return
            yield from self.recv_dma.transfer(packet.wire_bytes)
            region.write(packet.payload, header.roffset)
            self.rdma_write_packets += 1
            self.rdma_write_bytes += len(packet.payload)
            self.offload_progress += 1
            packet.stamp(self._rdma_write_label, self.env.now)
            put = (header.src, header.msg_id)
            landed = self._open_writes.pop(put, 0) + len(packet.payload)
            if landed == header.msg_bytes:
                self._post_completion("write", header.src, header.rkey,
                                      header.msg_id, header.msg_bytes)
            else:  # a chunk still to come, or one that never will
                self._open_writes[put] = landed
            if obs is not None:
                obs.record(self._write_site, t0, header.src, header.rkey,
                           header.seq, packet.wire_bytes, ctx=packet.trace)
            return
        if _and(flags, _RDMA_READ_REQ):
            # Serve the read in its own firmware process so a long pull
            # never parks the receive loop.
            self.env.process(
                self._serve_rdma_read(packet),
                name=f"{self.name}.rdma_read{packet.header.msg_id}")
            if obs is not None:
                obs.record(self._read_req_site, t0, header.src, header.rkey,
                           header.msg_bytes, ctx=packet.trace)
            return
        # RDMA_READ_RESP: land the pulled bytes at the requester.
        pending = self._pending_gets.get(header.msg_id)
        if (pending is None
                or pending.local_offset + header.roffset + len(packet.payload)
                > pending.buffer.size):
            self.rdma_unmatched += 1
            return
        yield from self.recv_dma.transfer(packet.wire_bytes)
        pending.buffer.write(packet.payload,
                             pending.local_offset + header.roffset)
        pending.received += len(packet.payload)
        self.offload_progress += 1
        packet.stamp(self._rdma_read_land_label, self.env.now)
        if obs is not None:
            obs.record(self._read_resp_site, t0, header.src, header.rkey,
                       header.seq, packet.wire_bytes, ctx=packet.trace)
        if pending.received >= pending.nbytes:
            del self._pending_gets[header.msg_id]
            self._post_completion("read", header.src, header.rkey,
                                  header.msg_id, pending.nbytes)

    def _serve_rdma_read(self, request: Packet):
        """Firmware serves a one-sided read: region -> SRAM (send DMA) ->
        wire, with zero host instructions at either end."""
        header = request.header
        region = self.regions.get(header.rkey)
        nbytes = header.msg_bytes
        if region is None or header.roffset + nbytes > region.size:
            self.rdma_unmatched += 1
            return
        obs = self.env.obs
        t0 = self.env.now
        self.rdma_reads_served += 1
        offset = 0
        seq = 0
        last_seq = (max(nbytes - 1, 0)) // RDMA_MTU
        while offset < nbytes:
            chunk = min(RDMA_MTU, nbytes - offset)
            yield self.params.rdma_match_ns
            yield from self.tx_dma.transfer(HEADER_BYTES + chunk)
            flags = framed(PacketFlags.RDMA_READ_RESP, seq == 0, seq == last_seq)
            reply = Packet(
                PacketHeader(src=self.node_id, dest=header.src,
                             handler_id=0, msg_id=header.msg_id, seq=seq,
                             msg_bytes=nbytes, flags=flags,
                             rkey=header.rkey, roffset=offset),
                region.view(header.roffset + offset, chunk))
            yield from self._fw_inject(reply)
            self.rdma_read_bytes += chunk
            offset += chunk
            seq += 1
        if obs is not None:
            obs.record(self._read_serve_site, t0, header.src, header.rkey, nbytes)

    # -- collective state machine ----------------------------------------------
    def _rx_collective(self, packet: Packet, t0: int) -> None:
        """Deposit a collective packet into its table entry (zero firmware
        time here beyond the loop's per-packet charge; the engine processes
        charge ``collective_step_ns`` per protocol step)."""
        header = packet.header
        if not packet.crc_ok():
            self.corrupt_offload_packets += 1
            return
        self.collective_packets += 1
        state = self._coll_state(header.msg_id, header.handler_id)
        if header.handler_id == COLL_BARRIER:
            rnd = header.seq
            state.arrived[rnd] = state.arrived.get(rnd, 0) + 1
            waiters = state.round_waiters.pop(rnd, None)
            if waiters:
                for event in waiters:
                    event.succeed()
        else:
            state.pending.append(packet)
            if state.data_waiters:
                waiters, state.data_waiters = state.data_waiters, []
                for event in waiters:
                    event.succeed()
        obs = self.env.obs
        if obs is not None:
            obs.record(self._coll_rx_site, t0, header.src, header.msg_id, header.seq)

    def _barrier_engine(self, state: _CollState):
        """Dissemination barrier run entirely in firmware: round ``k``
        sends to ``(me + 2^k) mod n`` and waits on ``(me - 2^k) mod n``."""
        env = self.env
        me = self.node_id
        n = state.n_nodes
        obs = env.obs
        t0 = env.now
        k = 0
        while (1 << k) < n:
            step = 1 << k
            yield self.params.collective_step_ns
            packet = Packet(
                PacketHeader(src=me, dest=(me + step) % n,
                             handler_id=COLL_BARRIER, msg_id=state.coll_id,
                             seq=k, msg_bytes=0,
                             flags=framed(PacketFlags.COLLECTIVE, True, True)),
                b"")
            yield from self._fw_inject(packet)
            state.waiting = ("barrier round %d/%d waiting on node %d", k,
                             (n - 1).bit_length(), (me - step) % n)
            while state.arrived.get(k, 0) == 0:
                event = env.event()
                state.round_waiters.setdefault(k, []).append(event)
                yield event
            k += 1
        del self._colls[state.coll_id]
        self._post_completion("barrier", me, 0, state.coll_id, 0)
        if obs is not None:
            obs.record(self._barrier_site, t0, state.coll_id, k)

    def _bcast_engine(self, state: _CollState):
        """Binomial-tree broadcast: the root DMAs its host payload into
        SRAM once per chunk and fans out; interior NICs cut through —
        forward from SRAM while landing the chunk host-side."""
        env = self.env
        me = self.node_id
        n = state.n_nodes
        rel = (me - state.root) % n
        children = [(state.root + c) % n for c in _binomial_children(rel, n)]
        obs = env.obs
        t0 = env.now
        nbytes = state.nbytes
        last_seq = (nbytes - 1) // RDMA_MTU
        if me == state.root:
            offset = 0
            seq = 0
            while offset < nbytes:
                chunk = min(RDMA_MTU, nbytes - offset)
                yield self.params.collective_step_ns
                yield from self.tx_dma.transfer(HEADER_BYTES + chunk)
                data = state.buffer.view(offset, chunk)
                for child in children:
                    yield from self._fw_inject(self._bcast_packet(
                        state, child, seq, last_seq, offset, data))
                offset += chunk
                seq += 1
        else:
            parent = state.root + rel - (1 << (rel.bit_length() - 1))
            state.waiting = ("bcast waiting on parent %d", parent % n)
            while state.received < nbytes:
                while not state.pending:
                    event = env.event()
                    state.data_waiters.append(event)
                    yield event
                packet = state.pending.popleft()
                header = packet.header
                yield self.params.collective_step_ns
                yield from self.recv_dma.transfer(packet.wire_bytes)
                state.buffer.write(packet.payload, header.roffset)
                state.received += len(packet.payload)
                self.offload_progress += 1
                for child in children:
                    yield from self._fw_inject(self._bcast_packet(
                        state, child, header.seq, last_seq, header.roffset,
                        packet.payload))
        del self._colls[state.coll_id]
        self._post_completion("bcast", state.root, 0, state.coll_id, nbytes)
        if obs is not None:
            obs.record(self._bcast_site, t0, state.coll_id, state.root, nbytes)

    def _bcast_packet(self, state: _CollState, dest: int, seq: int,
                      last_seq: int, offset: int, data) -> Packet:
        flags = framed(PacketFlags.COLLECTIVE, seq == 0, seq == last_seq)
        return Packet(
            PacketHeader(src=self.node_id, dest=dest, handler_id=COLL_BCAST,
                         msg_id=state.coll_id, seq=seq,
                         msg_bytes=state.nbytes, flags=flags,
                         rkey=state.root, roffset=offset),
            data)

    def __repr__(self) -> str:
        return (f"<Nic {self.name!r} sent={self.sent_packets} "
                f"recv={self.received_packets} ctrl={self.control_packets} "
                f"corrupt_ctrl={self.corrupt_control_packets}>")
