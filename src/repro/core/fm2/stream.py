"""FM 2.x streams: the send-side gather stream and receive-side scatter stream.

A :class:`SendStream` accumulates arbitrary-size pieces into packets of at
most ``packet_payload`` bytes; each piece is PIO'd to the NIC as it is
supplied (gather: no assembly copy — the bus crossing *is* the data
movement).  A piece is ``bytes`` (any bytes-like object) or a :class:`Buffer`.

A :class:`RecvStream` is the handler-visible byte stream of one incoming
message.  The extract loop feeds it packet payloads; the handler consumes it
with ``receive`` in chunks of any size, each chunk copied exactly once, from
the receive region straight into the handler-chosen destination buffer (or
returned as ``bytes`` by ``receive_bytes``).
The handler is a coroutine of whichever process is inside ``FM_extract``:
``feed`` resumes it for one *slice* — until it finishes, or runs out of data
in ``receive`` and parks by yielding ``_PARK`` — and re-yields to the kernel
every event the handler yields on the way (CPU charges, deposits, whatever it
waits on).  That is the paper's "transparent handler multithreading": a
user-level switch inside ``FM_extract`` on the one host CPU, no kernel
process and no event per switch.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator, Optional

from repro.hardware.memory import Buffer
from repro.hardware.packet import HEADER_BYTES, Packet, PacketFlags, framed

from repro.core.common import FmProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.span import TraceContext
    from repro.core.fm2.api import FM2

#: What ``receive`` yields when it has outrun arrival: the slice loop in
#: ``feed`` takes it as "descheduled" and returns to the extract loop instead
#: of passing it to the kernel.
_PARK = object()


class SendStream:
    """An in-progress outgoing message (returned by ``FM_begin_message``)."""

    __slots__ = ("fm", "dest", "handler_id", "msg_bytes", "msg_id",
                 "sent_bytes", "next_seq", "closed", "_fill", "_last_emitted")

    def __init__(self, fm: "FM2", dest: int, handler_id: int, msg_bytes: int):
        self.fm = fm
        self.dest = dest
        self.handler_id = handler_id
        self.msg_bytes = msg_bytes
        self.msg_id = fm.alloc_msg_id(dest)
        self.sent_bytes = 0
        self.next_seq = 0
        self.closed = False
        self._fill = bytearray()
        self._last_emitted = False

    @property
    def remaining(self) -> int:
        return self.msg_bytes - self.sent_bytes - len(self._fill)

    def _check_open(self) -> None:
        if self.closed:
            raise FmProtocolError(
                f"send stream to node {self.dest} used after FM_end_message"
            )

    def push_piece(self, piece, offset: int, nbytes: int) -> Generator:
        """Gather ``nbytes`` of ``piece`` (bytes-like or a :class:`Buffer`)
        into the message (FM_send_piece body).

        Each piece is written to the NIC with one PIO burst (per-piece
        startup + bytes); full packets are emitted as they fill.
        """
        self._check_open()
        if nbytes < 0:
            raise FmProtocolError(f"negative piece size {nbytes}")
        if nbytes > self.remaining:
            raise FmProtocolError(
                f"piece of {nbytes} bytes overflows message: "
                f"{self.remaining} of {self.msg_bytes} bytes remain"
            )
        # Partition the piece into packet payloads synchronously, before any
        # yield: the memoryview aliases the caller's live memory, and this
        # block is the snapshot point.  Payloads that span a whole packet
        # are snapshotted straight off the view (one copy); only bytes
        # straddling a packet boundary pass through the fill bytearray.
        view = memoryview(piece.data if isinstance(piece, Buffer) else piece)
        if offset < 0 or offset + nbytes > len(view):
            raise IndexError(f"piece range [{offset}, {offset + nbytes}) out "
                             f"of bounds for a {len(view)}-byte piece")
        view = view[offset: offset + nbytes]
        cap = self.fm.params.packet_payload
        ready: list[bytes] = []
        taken = 0
        while taken < nbytes:
            room = cap - len(self._fill)
            take = min(room, nbytes - taken)
            if take == cap:
                ready.append(bytes(view[taken: taken + cap]))
            else:
                self._fill += view[taken: taken + take]
                if len(self._fill) == cap:
                    ready.append(bytes(self._fill))
                    self._fill.clear()
            taken += take
        # One bus burst per piece: the gather cost model.  Packet emission
        # below charges only the header bytes.
        yield from self.fm.bus.pio_write(self.fm.cpu, nbytes)
        for payload in ready:
            # If this full packet completes the declared size, it is the
            # LAST — no empty trailer follows.
            completes = self.sent_bytes + len(payload) == self.msg_bytes
            yield from self._emit(payload, last=completes)

    def finish(self) -> Generator:
        """Emit the final packet (FM_end_message body)."""
        self._check_open()
        if self.remaining != 0:
            raise FmProtocolError(
                f"FM_end_message with {self.remaining} bytes of the declared "
                f"{self.msg_bytes} unsent"
            )
        if not self._last_emitted:
            payload = bytes(self._fill)
            self._fill.clear()
            yield from self._emit(payload, last=True)
        self.closed = True

    def _emit(self, payload: bytes, last: bool) -> Generator:
        if last:
            self._last_emitted = True
        header = self.fm.make_header(
            self.dest, self.handler_id, self.msg_id, self.next_seq,
            self.msg_bytes, framed(PacketFlags.NONE, self.next_seq == 0, last),
        )
        packet = Packet(header, payload)
        self.sent_bytes += len(payload)
        self.next_seq += 1
        yield from self.fm.cpu.per_packet()
        if not self.fm.take_credit(self.dest):
            yield from self.fm.acquire_credit(self.dest)
        # Payload bytes were PIO'd piece-by-piece; only the header crosses now.
        yield from self.fm.inject(packet, pio_bytes=HEADER_BYTES)


class RecvStream:
    """The byte stream of one incoming message (handler-visible)."""

    __slots__ = ("fm", "src", "msg_id", "handler_id", "msg_bytes",
                 "arrived_bytes", "consumed_bytes", "next_seq", "complete",
                 "_chunks", "handler", "trace", "handler_finished", "_in_slice")

    def __init__(self, fm: "FM2", src: int, msg_id: int, handler_id: int,
                 msg_bytes: int):
        self.fm = fm
        self.src = src
        self.msg_id = msg_id
        self.handler_id = handler_id
        self.msg_bytes = msg_bytes
        self.arrived_bytes = 0
        self.consumed_bytes = 0
        self.next_seq = 0
        self.complete = False          # LAST packet has been fed
        #: Arrived-but-unconsumed payload chunks.  Entries are the packets'
        #: immutable bytes payloads, or zero-copy memoryview slices of them
        #: when a receive consumed only part of a chunk.
        self._chunks: deque = deque()
        #: The handler coroutine and the first packet's trace context, both
        #: set by ``FM2._process_packet`` before the first ``feed``.
        self.handler: Optional[Generator] = None
        self.trace: Optional["TraceContext"] = None
        self.handler_finished = False   # returned, or raised
        self._in_slice = False          # some process is driving the handler

    # -- handler side: FM_receive ------------------------------------------------
    @property
    def remaining(self) -> int:
        """Bytes of the message the handler has not yet consumed."""
        return self.msg_bytes - self.consumed_bytes

    def available(self) -> int:
        return self.arrived_bytes - self.consumed_bytes

    def receive(self, buf: Optional[Buffer], offset: int,
                nbytes: int) -> Generator:
        """Copy the next ``nbytes`` of the message into ``buf`` (FM_receive).

        Blocks (deschedules the handler, returning control to extract) until
        enough packets have arrived.  Data is copied exactly once, chunk by
        chunk, from the receive region into the destination, or, with
        ``buf=None``, returned as one ``bytes`` (:meth:`receive_bytes`).
        """
        if nbytes < 0:
            raise FmProtocolError(f"negative receive size {nbytes}")
        if nbytes > self.remaining:
            raise FmProtocolError(
                f"FM_receive of {nbytes} bytes exceeds the {self.remaining} "
                f"bytes remaining in the {self.msg_bytes}-byte message"
            )
        cpu = self.fm.cpu
        obs = self.fm.env.obs
        t0 = self.fm.env.now
        chunks = self._chunks
        parts = []
        copied = 0
        while copied < nbytes:
            if not chunks:
                if self.complete:
                    raise FmProtocolError(
                        f"internal: stream ({self.src}, {self.msg_id}) "
                        f"complete but handler still waiting for data"
                    )
                yield _PARK
                continue
            chunk = chunks.popleft()
            take = min(len(chunk), nbytes - copied)
            if take < len(chunk):
                # Split without copying: packet payloads are immutable bytes,
                # so both halves can alias the original (the leftover view
                # goes back on the deque for the next call).
                mv = memoryview(chunk)
                chunks.appendleft(mv[take:])
                chunk = mv[:take]
            # The single receive-side copy, straight from the receive region
            # into the destination, charged as HostCpu.deposit charges it.
            if buf is None:
                parts.append(chunk)
            else:
                buf.write(chunk, offset + copied)
            cpu.meter.record(take, "fm2.deliver")
            yield from cpu.execute(cpu.memcpy_cost(take))
            copied += take
            self.consumed_bytes += take
        if obs is not None:
            obs.record(self.fm._sites.receive, t0, self.src, nbytes)
        if buf is None:
            return b"".join(parts)  # one whole payload: the packet's own bytes

    def receive_bytes(self, nbytes: int) -> Generator:
        """The next ``nbytes`` of the message as ``bytes``, charged as
        :meth:`receive` charges them; no staging buffer."""
        return self.receive(None, 0, nbytes)

    # -- extract side ---------------------------------------------------------------
    def feed(self, packet: Packet) -> Generator:
        """Append a packet's payload and run the handler until it parks.

        Called by the extract loop; returns once the handler has consumed
        what it wants of the data so far (i.e. is parked in ``FM_receive``
        or has finished) — the controlled interleaving of §4.1.
        """
        header = packet.header
        if header.seq != self.next_seq:
            raise FmProtocolError(
                f"out-of-order packet for message ({self.src}, {self.msg_id}): "
                f"seq {header.seq}, expected {self.next_seq}"
            )
        self.next_seq += 1
        if packet.payload:
            self._chunks.append(packet.payload)
            self.arrived_bytes += len(packet.payload)
        if header.is_last:
            if self.arrived_bytes != self.msg_bytes:
                raise FmProtocolError(
                    f"message ({self.src}, {self.msg_id}) completed with "
                    f"{self.arrived_bytes} of {self.msg_bytes} bytes"
                )
            self.complete = True
        if self.handler_finished:
            return
        handler = self.handler
        if self._in_slice:
            if handler.gi_running:
                raise FmProtocolError(
                    f"node {self.fm.node_id}: handler re-entered FM_extract "
                    f"and was fed its own message ({self.src}, {self.msg_id})"
                )
            # Another process of this node is mid-slice (the handler is
            # waiting on one of its own events): it will find the bytes.
            return
        # One slice.  The extracting process carries the first packet's trace
        # context for its duration, so the handler's spans join that tree.
        obs = self.fm.env.obs
        self._in_slice = True
        if obs is not None:
            prev = obs.bind(self.trace)
        try:
            event = handler.send(None)
            while event is not _PARK:
                # The kernel resumes the extracting process with the event's
                # value, or throws a failed event's exception in: forward
                # either to the handler, as its own process would have.
                try:
                    value = yield event
                except BaseException as exc:
                    event = handler.throw(exc)
                else:
                    event = handler.send(value)
        except BaseException as exc:
            self.handler_finished = True
            if not isinstance(exc, StopIteration):
                raise       # into the extracting program, which may catch it
        finally:
            self._in_slice = False
            if obs is not None:
                obs.bind(prev)

    def discard_unconsumed(self) -> int:
        """Drop bytes the handler chose not to receive; returns the count.

        FM 2.x lets a handler consume less than the full message; leftover
        bytes are discarded when the message is complete and the handler has
        returned.
        """
        dropped = self.available()
        self._chunks.clear()
        self.consumed_bytes = self.arrived_bytes
        return dropped

    def __repr__(self) -> str:
        return (f"<RecvStream src={self.src} msg={self.msg_id} "
                f"{self.consumed_bytes}/{self.arrived_bytes}/{self.msg_bytes}B"
                f"{' complete' if self.complete else ''}>")
