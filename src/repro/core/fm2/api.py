"""The FM 2.x API (Table 2 of the paper).

==========================================  =========================================
Paper primitive                             This implementation
==========================================  =========================================
``FM_begin_message(dest, size, handler)``   ``fm.begin_message(dest, size, handler)``
``FM_send_piece(stream, buf, bytes)``       ``fm.send_piece(stream, buf, off, n)``
``FM_end_message(stream)``                  ``fm.end_message(stream)``
``FM_receive(buf, stream, bytes)``          ``stream.receive(buf, off, n)``
``FM_extract(bytes)``                       ``fm.extract(max_bytes)``
==========================================  =========================================

Handlers are generator functions ``handler(fm, stream, src)``.  Each is a
logical thread of the process inside ``FM_extract`` — a coroutine started
when the first packet of its message is extracted, descheduled inside
``stream.receive`` while data is in flight, and resumed by whichever extract
takes the next packet — so several handlers can be pending at once and a
long message from one sender does not block others.

All primitives are generators: ``yield from fm.begin_message(...)`` etc.
A layer above that sends header + payload calls ``fm.send_gather(dest,
handler, pieces)`` — the three send primitives in sequence, one
``FM_send_piece`` per piece — and returns that generator as its own send.
A piece is ``bytes`` (any bytes-like object) or a :class:`Buffer`.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hardware.memory import Buffer
from repro.hardware.packet import Packet, Site

from repro.core.common import FmEndpoint, FmProtocolError
from repro.core.fm2.stream import RecvStream, SendStream


class FM2(FmEndpoint):
    """One node's FM 2.x endpoint."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._streams: dict[tuple[int, int], RecvStream] = {}
        sites, track = self._sites, self._track
        sites.begin = Site("fm", "FM_begin_message", track, "dest", "bytes")
        sites.piece = Site("fm", "FM_send_piece", track, "dest", "bytes")
        sites.end = Site("fm", "FM_end_message", track, "dest", "bytes")
        sites.extract = Site("fm", "FM_extract", track, "bytes")
        sites.receive = Site("fm", "FM_receive", track, "src", "bytes")

    # -- send side -----------------------------------------------------------
    def begin_message(self, dest: int, msg_bytes: int, handler_id: int) -> Generator:
        """Open a message stream to ``dest`` (FM_begin_message).

        Returns the :class:`SendStream` to pass to ``send_piece`` /
        ``end_message``.
        """
        if msg_bytes < 0:
            raise FmProtocolError(f"negative message size {msg_bytes}")
        if dest == self.node_id:
            raise FmProtocolError("FM does not support self-sends")
        self.handlers.lookup(handler_id)
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.per_message()
        if obs is not None:
            obs.record(self._sites.begin, t0, dest, msg_bytes)
        return SendStream(self, dest, handler_id, msg_bytes)

    def send_piece(self, stream: SendStream, buf, offset: int,
                   nbytes: int) -> Generator:
        """Append a piece of arbitrary size to the message (FM_send_piece)."""
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.call()
        yield from stream.push_piece(buf, offset, nbytes)
        if obs is not None:
            obs.record(self._sites.piece, t0, stream.dest, nbytes)

    def end_message(self, stream: SendStream) -> Generator:
        """Close the message; flushes the final packet (FM_end_message)."""
        obs = self.env.obs
        t0 = self.env.now
        yield from stream.finish()
        self.stats_sent_messages += 1
        if obs is not None:
            obs.record(self._sites.end, t0, stream.dest, stream.msg_bytes)

    def send_gather(self, dest: int, handler_id: int,
                    pieces: list) -> Generator:
        """One message gathered from ``pieces``, each sent whole and in
        order — the header + payload send of every layer above, its pieces
        ``bytes`` as they are.  Sends exactly the pieces given: a zero-length
        piece still costs its ``FM_send_piece``, so callers leave an empty
        payload out."""
        stream = yield from self.begin_message(
            dest, sum([len(piece) for piece in pieces]), handler_id)
        for piece in pieces:
            yield from self.send_piece(stream, piece, 0, len(piece))
        yield from self.end_message(stream)

    def send_buffer(self, dest: int, handler_id: int, buf: Buffer, nbytes: int,
                    offset: int = 0) -> Generator:
        """Convenience: a whole contiguous buffer as one single-piece message."""
        stream = yield from self.begin_message(dest, nbytes, handler_id)
        yield from self.send_piece(stream, buf, offset, nbytes)
        yield from self.end_message(stream)

    # -- receive side -------------------------------------------------------------
    def extract(self, max_bytes: Optional[int] = None) -> Generator:
        """Process received packets, up to ``max_bytes`` of payload
        (FM_extract(bytes)) — the receiver flow control of §4.1.

        The limit is rounded up to the next packet boundary, exactly as the
        paper specifies: a packet that crosses the limit is still processed
        in full, and then extraction stops.  ``None`` means drain everything
        pending (FM 1.x behaviour).

        Returns the number of payload bytes presented to handlers.
        """
        if max_bytes is not None and max_bytes < 0:
            raise FmProtocolError(f"negative extract budget {max_bytes}")
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.poll()
        extracted = 0
        while max_bytes is None or extracted < max_bytes:
            packet = self.nic.recv_region.try_get()
            if packet is None:
                break
            extracted += (yield from self._process_packet(packet))
        if obs is not None and extracted:
            obs.record(self._sites.extract, t0, extracted)
        return extracted

    def pending_handlers(self) -> int:
        """Messages whose handlers have started but not finished."""
        return sum(1 for s in self._streams.values() if not s.handler_finished)

    # -- internals --------------------------------------------------------------------
    def _process_packet(self, packet: Packet) -> Generator:
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
        stream = self._streams.get(key)
        if stream is None:
            if not header.is_first:
                raise FmProtocolError(
                    f"mid-message packet for unknown stream {key} "
                    "(in-order delivery violated?)"
                )
            stream = RecvStream(self, header.src, header.msg_id,
                                header.handler_id, header.msg_bytes)
            self._streams[key] = stream
            handler = self.handlers.lookup(header.handler_id)
            yield from self.cpu.call()
            stream.handler = handler(self, stream, header.src)
            stream.trace = packet.trace
        try:
            yield from stream.feed(packet)
        finally:
            # Also when the handler raised: the extracting program may
            # catch that, and the message is over either way.
            if stream.complete and stream.handler_finished:
                stream.discard_unconsumed()
                del self._streams[key]
                self.stats_recv_messages += 1
        return packet.payload_bytes
