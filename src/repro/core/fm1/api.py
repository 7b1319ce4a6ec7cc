"""The FM 1.1 API: ``FM_send_4``, ``FM_send``, ``FM_extract``.

Send path (§3.1): the host CPU packetises the message into fixed-capacity
packets and pushes each across the I/O bus into NIC SRAM with programmed
I/O, spending one flow-control credit per packet.  On the Sparc/SBus
testbed this PIO is the dominant cost and bounds peak bandwidth.

Receive path: the NIC DMAs packets into the host receive region;
``FM_extract`` drains the region, reassembling each message into a
contiguous **staging buffer** (one copy), and invokes the handler with the
complete buffer only once the whole message has arrived.  Handlers are
generator functions ``handler(fm, src, buffer, nbytes)`` executed inside
extract — FM 1.x has no handler/extract interleaving.

All primitives are generators: call as ``yield from fm.send(...)`` inside a
simulation process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.hardware.memory import Buffer
from repro.hardware.packet import Packet, PacketFlags, Site, framed

from repro.core.common import FmEndpoint, FmProtocolError

#: Payload size of an ``FM_send_4`` message: four 32-bit words.
SEND4_BYTES = 16


@dataclass
class _Reassembly:
    """A partially received message being rebuilt in a staging buffer."""

    staging: Buffer
    msg_bytes: int
    handler_id: int
    received: int = 0
    next_seq: int = 0


class FM1(FmEndpoint):
    """One node's FM 1.x endpoint."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reassembly: dict[tuple[int, int], _Reassembly] = {}
        sites, track = self._sites, self._track
        sites.send = Site("fm", "FM_send", track, "dest", "bytes", "packets")
        sites.send_4 = Site("fm", "FM_send_4", track, "dest", "bytes")
        sites.extract = Site("fm", "FM_extract", track, "packets", "handlers")
        sites.handler = Site("app", "handler", f"node{self.node_id}/app", "src", "bytes")

    # -- Table 1: FM_send(dest, handler, buf, size) ------------------------------
    def send(self, dest: int, handler_id: int, buf: Buffer, size: int,
             offset: int = 0) -> Generator:
        """Send ``size`` bytes of ``buf`` as one message (FM_send).

        The message must be a single contiguous region — composing it from
        pieces (e.g. header + payload) requires the caller to assemble a
        contiguous copy first, which is FM 1.x's send-side interface cost.
        """
        if size < 0:
            raise FmProtocolError(f"negative message size {size}")
        self.handlers_check(handler_id, dest)
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.per_message()
        msg_id = self.alloc_msg_id(dest)
        payload_cap = self.params.packet_payload
        n_packets = self.params.packets_for(size)
        sent = 0
        for seq in range(n_packets):
            take = min(payload_cap, size - sent)
            # Zero-copy slice of the user buffer; Packet() below snapshots it
            # synchronously (before any yield), which is the one send-side copy.
            chunk = buf.view(offset + sent, take)
            sent += take
            flags = framed(PacketFlags.NONE, seq == 0, seq == n_packets - 1)
            header = self.make_header(dest, handler_id, msg_id, seq, size, flags)
            packet = Packet(header, chunk)
            yield from self.cpu.per_packet()
            if not self.take_credit(dest):
                yield from self.acquire_credit(dest)
            yield from self.inject(packet)
        self.stats_sent_messages += 1
        if obs is not None:
            obs.record(self._sites.send, t0, dest, size, n_packets)

    # -- Table 1: FM_send_4(dest, handler, i0..i3) --------------------------------
    def send_4(self, dest: int, handler_id: int, words: bytes) -> Generator:
        """Send a four-word (16-byte) message (FM_send_4).

        The short-message fast path: skips the general per-message
        packetisation bookkeeping (a single fixed-format packet is built
        directly), which is why fine-grained programs use it.
        """
        if len(words) != SEND4_BYTES:
            raise FmProtocolError(
                f"FM_send_4 requires exactly {SEND4_BYTES} bytes, got {len(words)}"
            )
        self.handlers_check(handler_id, dest)
        msg_id = self.alloc_msg_id(dest)
        header = self.make_header(
            dest, handler_id, msg_id, 0, SEND4_BYTES,
            framed(PacketFlags.NONE, True, True),
        )
        packet = Packet(header, words)
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.per_packet()
        if not self.take_credit(dest):
            yield from self.acquire_credit(dest)
        yield from self.inject(packet)
        self.stats_sent_messages += 1
        if obs is not None:
            obs.record(self._sites.send_4, t0, dest, SEND4_BYTES)

    # -- Table 1: FM_extract() ------------------------------------------------
    def extract(self, max_packets: Optional[int] = None) -> Generator:
        """Process received messages (FM_extract).

        Drains every packet currently in the host receive region (FM 1.x
        gives the receiver no control over *how much* is processed — the
        §3.2 criticism that became FM 2.x's ``FM_extract(bytes)``),
        reassembles messages, and runs handlers for completed messages.

        Returns the number of handlers invoked.  ``max_packets`` is a
        simulation-side safety valve only, not part of the FM 1.1 API.
        """
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.poll()
        handled = 0
        processed = 0
        while max_packets is None or processed < max_packets:
            packet = self.nic.recv_region.try_get()
            if packet is None:
                break
            processed += 1
            handled += (yield from self._process_packet(packet))
        if obs is not None and processed:
            obs.record(self._sites.extract, t0, processed, handled)
        return handled

    # -- internals ----------------------------------------------------------------
    def handlers_check(self, handler_id: int, dest: int) -> None:
        if dest == self.node_id:
            raise FmProtocolError("FM does not support self-sends")
        # Handler ids index the *receiver's* table; by convention all nodes
        # register the same handlers in the same order (SPMD style), so a
        # locally unknown id is almost certainly a bug.
        self.handlers.lookup(handler_id)

    def _process_packet(self, packet: Packet) -> Generator:
        """Account, reassemble, and possibly dispatch. Returns handlers run."""
        header = packet.header
        yield from self.cpu.per_packet()
        if not packet.crc_ok():
            self.raise_corruption(packet)
        self.stats_recv_packets += 1
        obs = self.env.obs
        if obs is not None:
            obs.packet_done(packet, "extract", self.env.now)
        yield from self.note_packet_processed(header.src)

        key = (header.src, header.msg_id)
        entry = self._reassembly.get(key)
        if entry is None:
            entry = _Reassembly(
                staging=Buffer(header.msg_bytes, name=f"fm1.staging[{key}]"),
                msg_bytes=header.msg_bytes,
                handler_id=header.handler_id,
            )
            self._reassembly[key] = entry
        if header.seq != entry.next_seq:
            raise FmProtocolError(
                f"out-of-order packet for message {key}: "
                f"seq {header.seq}, expected {entry.next_seq} "
                "(the network substrate should make this impossible)"
            )
        entry.next_seq += 1

        if packet.payload:
            # The FM 1.x receive-side copy: receive region -> staging buffer.
            # deposit() writes the (immutable) payload straight into staging —
            # cost and meter label identical to the old memcpy through a
            # temporary Buffer, minus the temporary.
            dst_off = header.seq * self.params.packet_payload
            yield from self.cpu.deposit(
                packet.payload, entry.staging, dst_off, label="fm1.staging_copy",
            )
            entry.received += len(packet.payload)

        if not header.is_last:
            return 0
        if entry.received != entry.msg_bytes:
            raise FmProtocolError(
                f"message {key} completed with {entry.received} of "
                f"{entry.msg_bytes} bytes"
            )
        del self._reassembly[key]
        self.stats_recv_messages += 1
        handler = self.handlers.lookup(entry.handler_id)
        t_handler = self.env.now
        yield from self.cpu.call()
        if obs is not None and packet.trace is not None:
            # FM 1.x runs handlers inline in the extract process: bind the
            # packet's trace context around the call (and restore the
            # pump's own binding after) so the handler's spans — and any
            # response it sends — join the originating request's tree.
            prev = obs.bind(packet.trace)
            try:
                yield from handler(self, header.src, entry.staging,
                                   entry.msg_bytes)
            finally:
                obs.bind(prev)
        else:
            yield from handler(self, header.src, entry.staging,
                               entry.msg_bytes)
        if obs is not None:
            obs.record(self._sites.handler, t_handler, header.src,
                       entry.msg_bytes, ctx=packet.trace)
        return 1
