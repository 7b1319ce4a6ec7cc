"""Wire packets: fixed-size header plus payload bytes.

The FM layers packetise messages into packets of at most
``FmParams.packet_payload`` bytes; the header carries what the receive path
needs to reassemble and dispatch without any per-connection state:

* routing/identity: source and destination node ids,
* demultiplexing: handler id,
* reassembly: per-(src → dst) message id, sequence number within the
  message, total message length, FIRST/LAST flags,
* flow control: piggybacked credit return,
* integrity: a CRC over the payload as sent, computed only when read or
  when the payload has been replaced since (a link marks damage with the
  CORRUPT flag, which :meth:`Packet.crc_ok` tests first).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import IntFlag
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.span import TraceContext


#: Bytes of header on the wire.  FM 1.1's real header was ~12-16 bytes;
#: 16 keeps arithmetic simple and is charged on every wire/bus/PIO crossing.
HEADER_BYTES: int = 16


class PacketFlags(IntFlag):
    """Packet header flag bits (message framing, control, fault marks)."""

    NONE = 0
    FIRST = 1     # first packet of a message
    LAST = 2      # last packet of a message
    CONTROL = 4   # FM-internal control traffic (credit updates)
    CORRUPT = 8   # set by the link error model when the payload was damaged
    ACK = 16      # acknowledgement (software-reliability extension traffic)
    # One-sided RDMA kinds: matched by the receiving NIC's firmware against
    # its registered-region table and serviced entirely below the host
    # receive path (no handler, no receive-region slot, no credit).
    RDMA_WRITE = 32      # one-sided put: payload lands in a registered region
    RDMA_READ_REQ = 64   # read request: zero payload, asks the NIC to serve
    RDMA_READ_RESP = 128  # read response: payload generated by remote firmware
    # NIC-offloaded collective traffic (barrier/broadcast state machine):
    # generated and absorbed inside the firmware loops, like CONTROL.
    COLLECTIVE = 256


#: The per-packet flag tests run on plain ints: ``flags & member`` on an
#: IntFlag builds an enum member per call (about 1 us each on the rx path).
_and = int.__and__
_FIRST, _LAST, _CONTROL, _CORRUPT, _COLLECTIVE = (int(flag) for flag in (
    PacketFlags.FIRST, PacketFlags.LAST, PacketFlags.CONTROL,
    PacketFlags.CORRUPT, PacketFlags.COLLECTIVE))
_RDMA_WRITE, _RDMA_READ_REQ = (int(PacketFlags.RDMA_WRITE),
                               int(PacketFlags.RDMA_READ_REQ))
_RDMA = int(PacketFlags.RDMA_WRITE | PacketFlags.RDMA_READ_REQ
            | PacketFlags.RDMA_READ_RESP)

#: Every kind in every framing, built once: an IntFlag ``|`` builds a member
#: per call (about 1.7 us for a FIRST and a LAST), an index reads a tuple.
_FRAMINGS = {kind: (kind, kind | PacketFlags.FIRST, kind | PacketFlags.LAST,
                    kind | PacketFlags.FIRST | PacketFlags.LAST)
             for kind in (PacketFlags.NONE, *PacketFlags)}


def framed(kind: PacketFlags, first: bool, last: bool) -> PacketFlags:
    """``kind`` plus FIRST if ``first`` and LAST if ``last``: the header
    flags of one packet of a message, the same member on every call."""
    return _FRAMINGS[kind][first + 2 * last]


#: Kinds of hop waypoint: a crossing the observer records as a span.
WIRE_HOP, FORWARD_HOP, TX_HOP, RX_HOP = range(4)


class Site:
    """Where a span is recorded (layer, name, track, attr keys): built once by
    its component; ``Observer.record`` finds it by identity."""

    __slots__ = ("layer", "name", "track", "keys")

    def __init__(self, layer: str, name: str, track: str, *keys: str):
        self.layer, self.name, self.track, self.keys = layer, name, track, keys


@dataclass(slots=True)
class PacketHeader:
    """Packet metadata (kept as a structured object; its wire size is
    accounted as :data:`HEADER_BYTES`).

    The RDMA extension reuses header slack rather than growing the wire
    format: ``rkey`` names a registered region at the destination NIC and
    ``roffset`` the byte offset the payload (or read) targets.  Both ride
    inside the same modelled 16-byte header (real FM headers carried pad
    words; a 4-byte key and offset fit the slack), so every cost crossing
    is unchanged.  For COLLECTIVE packets ``handler_id`` is the collective
    opcode, ``msg_id`` the collective sequence id, ``seq`` the round (or
    chunk), and ``rkey`` the root rank of the operation.
    """

    src: int
    dest: int
    handler_id: int
    msg_id: int
    seq: int
    msg_bytes: int
    flags: PacketFlags = PacketFlags.NONE
    credit_return: int = 0
    rkey: int = 0
    roffset: int = 0

    def __post_init__(self) -> None:
        if self.src < 0 or self.dest < 0:
            raise ValueError(f"node ids must be non-negative ({self.src}, {self.dest})")
        if self.seq < 0 or self.msg_bytes < 0:
            raise ValueError("seq and msg_bytes must be non-negative")
        if self.rkey < 0 or self.roffset < 0:
            raise ValueError("rkey and roffset must be non-negative")

    @property
    def is_first(self) -> bool:
        return _and(self.flags, _FIRST) != 0

    @property
    def is_last(self) -> bool:
        return _and(self.flags, _LAST) != 0

    @property
    def is_control(self) -> bool:
        return _and(self.flags, _CONTROL) != 0


@dataclass(slots=True)
class Packet:
    """A packet in flight: header, payload bytes, and a source route.

    ``route`` is the list of switch output-port indices remaining on the
    path (Myrinet-style source routing): each switch pops the head.
    ``waypoints`` records ``(location, time_ns)`` stamps as the packet
    moves through the system — NIC injection, link transit, switch
    forwarding, DMA arrival, extraction — enabling per-stage latency
    attribution (see ``repro.bench.journey``).  It is the observer's
    source too: a hop stamp (``kind`` one of the ``*_HOP`` constants)
    appends ``kind, t_start, track`` and a switch's ports, what its span
    needs and the end time does not give (:meth:`Observer.hops
    <repro.obs.observer.Observer.hops>`).

    ``trace`` is the causal :class:`~repro.obs.span.TraceContext` stamped
    at injection time when an observer is attached and the sending process
    is working on behalf of a traced request.  It is host-side metadata
    only: it adds no wire bytes and never influences simulated behaviour.
    ``wire_bytes`` (header plus payload) is fixed at construction.
    """

    header: PacketHeader
    payload: bytes
    route: list[int] = field(default_factory=list)
    waypoints: list[tuple] = field(default_factory=list)
    trace: Optional["TraceContext"] = None
    wire_bytes: int = field(init=False)
    _sealed: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Packet construction is the single snapshot point of the send path:
        # callers hand in zero-copy memoryview slices over the user's buffer
        # (or a bytearray fill), and the one bytes() here materialises them.
        # In flight the payload is always immutable bytes, so the receive
        # side may alias it freely (memoryview) without a defensive copy.
        payload = self.payload
        if payload.__class__ is not bytes:
            if not isinstance(payload, (bytes, bytearray, memoryview)):
                raise TypeError(
                    f"payload must be bytes-like, got {type(payload).__name__}"
                )
            payload = self.payload = bytes(payload)
        self._sealed = payload
        self.wire_bytes = HEADER_BYTES + len(payload)

    @property
    def crc(self) -> int:
        """CRC-32 of the payload as sent (the sealed one)."""
        return compute_crc(self._sealed)

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)

    def crc_ok(self) -> bool:
        """Not marked CORRUPT, and the payload is the one sent."""
        if _and(self.header.flags, _CORRUPT):
            return False
        payload = self.payload
        return payload is self._sealed or compute_crc(payload) == self.crc

    def stamp(self, *waypoint) -> None:
        """Record a waypoint, ``(location, time_ns)`` or a hop's longer
        tuple, on this packet's journey."""
        self.waypoints.append(waypoint)

    def __repr__(self) -> str:
        h = self.header
        return (f"<Packet {h.src}->{h.dest} msg={h.msg_id} seq={h.seq} "
                f"{len(self.payload)}B flags={h.flags!r}>")


def compute_crc(payload: bytes) -> int:
    """CRC-32 of the payload (zlib's, which is fine for a simulator)."""
    return zlib.crc32(payload) & 0xFFFFFFFF
