"""Point-to-point links with cut-through pipelining and back-pressure.

A link is unidirectional (full-duplex cables are two :class:`Link` objects).
Packets are serialised onto the wire one at a time at link bandwidth; the
propagation delay of hop ``i`` overlaps the serialisation of packet ``i+1``
(cut-through at packet granularity).  The downstream input buffer is a
bounded store: when it fills, delivery blocks, the in-flight window fills,
and the serialiser stalls — the packet-granular analogue of Myrinet's
byte-granular STOP/GO back-pressure.  **Links never drop packets** by
default; this is the property FM's reliability layering relies on (§3.1 of
the paper).

Optional fault injection, two ways:

* **static** — ``LinkParams.bit_error_rate`` corrupts packets with
  probability ``1-(1-ber)^bits`` (sets the CORRUPT flag) and
  ``LinkParams.drop_rate`` discards them outright, both from a
  deterministic per-link RNG;
* **planned** — an attached :class:`repro.faults.FaultInjector`
  (``env.faults``) is consulted per packet and can corrupt or drop within
  scheduled episode windows, drawing from its own per-link streams.

The FM layers' behaviour under corruption (fail loudly) and the software
reliability shim's behaviour under both (recover) are exercised by the
fault-injection and resilience tests.
"""

from __future__ import annotations

import zlib
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
        # Deterministic per-link RNG, consulted only when error injection is
        # on — so only then made: a fault-free link never loads numpy.
        self._rng = None
        if params.drop_rate > 0.0 or params.bit_error_rate > 0.0:
            import numpy as np
            self._rng = np.random.default_rng(
                zlib.crc32(name.encode()) & 0xFFFFFFFF)

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
        """Static error model plus any planned episodes; True = drop.

        The static draws come from the link's own RNG (and are only made
        when the corresponding rate is nonzero, so enabling one mode never
        shifts the other's stream); planned episodes draw from the
        injector's per-link streams.
        """
        params = self.params
        dropped = False
        if params.drop_rate > 0.0 and self._rng.random() < params.drop_rate:
            dropped = True
        if params.bit_error_rate > 0.0 and not dropped:
            bits = packet.wire_bytes * 8
            p_error = 1.0 - (1.0 - params.bit_error_rate) ** bits
            if self._rng.random() < p_error:
                packet.header.flags |= PacketFlags.CORRUPT
                self.corrupted += 1
        faults = self.env.faults
        if faults is not None and not dropped:
            fate = faults.link_fate(self.name, packet)
            if fate == "drop":
                dropped = True
            elif fate == "corrupt":
                if not packet.header.flags & PacketFlags.CORRUPT:
                    self.corrupted += 1
                packet.header.flags |= PacketFlags.CORRUPT
        if dropped:
            self.dropped += 1
            obs = self.env.obs
            if obs is not None:
                obs.span("fault", "link_drop", self.env.now,
                         track=self._track, src=packet.header.src,
                         dest=packet.header.dest, seq=packet.header.seq)
                obs.hops(packet)
        return dropped

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} packets={self.packets} "
                f"bytes={self.bytes} dropped={self.dropped}>")
