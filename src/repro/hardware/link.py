"""Point-to-point links with cut-through pipelining and back-pressure.

A link is unidirectional (full-duplex cables are two :class:`Link` objects).
Packets are serialised onto the wire one at a time at link bandwidth; the
propagation delay of hop ``i`` overlaps the serialisation of packet ``i+1``
(cut-through at packet granularity).  The downstream input buffer is a
bounded store: when it fills, delivery blocks, the in-flight window fills,
and the serialiser stalls — the packet-granular analogue of Myrinet's
byte-granular STOP/GO back-pressure.  **Links never drop or corrupt
packets** on their own; this is the property FM's reliability layering
relies on (§3.1 of the paper).

A link errs only when an experiment says so: an attached
:class:`repro.faults.FaultInjector` (``env.faults``) is consulted per
serialised packet and can corrupt (set the CORRUPT flag) or drop it within
a plan's :class:`~repro.faults.LinkFault` windows, drawing from its own
per-link streams and recording every fault it injects.  The FM layers'
behaviour under corruption (fail loudly) and the software reliability
shim's (recover) are exercised by the fault-injection and resilience tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.simkernel.store import EMPTY, Store
from repro.simkernel.units import transfer_time_ns

from repro.hardware.packet import WIRE_HOP, Packet, PacketFlags
from repro.hardware.params import LinkParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class Link:
    """A unidirectional wire from one component's output to another's input."""

    def __init__(self, env: "Environment", params: LinkParams, name: str = "link"):
        self.env = env
        self.params = params
        self.name = name
        self._wire_label = f"{name}.wire"
        self._track = f"fabric/{name}"
        #: Upstream components put packets here; bounded = transmit buffer.
        self.ingress: Store = Store(env, capacity=params.slots, name=f"{name}.ingress")
        #: In-flight window between serialiser and deliverer.
        self._flight: Store = Store(env, capacity=params.slots, name=f"{name}.flight")
        self._target: Optional[Store] = None
        self._started = False
        self.packets: int = 0
        self.bytes: int = 0
        self.corrupted: int = 0
        self.dropped: int = 0

    def connect(self, target: Store) -> None:
        """Set the downstream input store packets are delivered into."""
        if self._target is not None:
            raise RuntimeError(f"link {self.name!r} is already connected")
        self._target = target

    def start(self) -> None:
        """Spawn the serialiser and deliverer processes."""
        if self._target is None:
            raise RuntimeError(f"link {self.name!r} started before connect()")
        if self._started:
            raise RuntimeError(f"link {self.name!r} started twice")
        self._started = True
        self.env.process(self._serialise(), name=f"{self.name}.serialise")
        self.env.process(self._deliver(), name=f"{self.name}.deliver")

    def wire_time(self, packet: Packet) -> int:
        return transfer_time_ns(packet.wire_bytes, self.params.bandwidth)

    # -- processes ----------------------------------------------------------
    def _serialise(self):
        while True:
            packet: Packet = self.ingress.get_now()
            if packet is EMPTY:
                packet = yield self.ingress.get()
            t0 = self.env.now
            yield self.wire_time(packet)
            packet.stamp(self._wire_label, self.env.now, WIRE_HOP, t0,
                         self._track)
            dropped = self._apply_faults(packet)
            self.packets += 1
            self.bytes += packet.wire_bytes
            if dropped:
                # Lossy-link mode: the packet burned wire time but never
                # arrives.  Downstream sees nothing — detection (if any) is
                # an upper-layer protocol's job, exactly as on a real wire.
                continue
            # Tag with earliest possible arrival so propagation pipelines.
            flight = (packet, self.env.now + self.params.propagation_ns)
            if not self._flight.put_now(flight):
                yield self._flight.put(flight)

    def _deliver(self):
        target = self._target
        while True:
            flight = self._flight.get_now()
            if flight is EMPTY:
                flight = yield self._flight.get()
            packet, ready_at = flight
            if ready_at > self.env.now:
                yield ready_at - self.env.now
            if not target.put_now(packet):
                yield target.put(packet)

    # -- fault injection ------------------------------------------------------
    def _apply_faults(self, packet: Packet) -> bool:
        """Ask the attached injector for this packet's fate; True = drop.

        The injector records the fault (event, counter, ``fault`` span);
        the link keeps its own tallies and, for a drop, ends the packet's
        hop record here since it never reaches a NIC.
        """
        faults = self.env.faults
        if faults is None:
            return False
        fate = faults.link_fate(self.name, packet)
        if fate == "corrupt":
            if not packet.header.flags & PacketFlags.CORRUPT:
                self.corrupted += 1
            packet.header.flags |= PacketFlags.CORRUPT
        elif fate == "drop":
            self.dropped += 1
            obs = self.env.obs
            if obs is not None:
                obs.hops(packet)
            return True
        return False

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} packets={self.packets} "
                f"bytes={self.bytes} dropped={self.dropped}>")
