"""DMA engines: serialised users of the I/O bus.

A :class:`DmaEngine` represents one hardware DMA channel on the NIC (one for
each direction).  Transfers on one engine are strictly serial (the engine is
a capacity-1 resource); the engine contends with PIO and the other engine at
the bus arbiter inside :meth:`IoBus.dma_transfer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.simkernel.resources import Resource

from repro.hardware.bus import IoBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class DmaEngine:
    """One DMA channel; transfers serialise on the engine, then on the bus."""

    def __init__(self, env: "Environment", bus: IoBus, name: str = "dma"):
        self.env = env
        self.bus = bus
        self.name = name
        self.channel = Resource(env, capacity=1, name=f"{name}.channel")
        #: Transfers/bytes *admitted* to the engine (counted when the
        #: descriptor is posted, before the channel or bus is acquired) —
        #: so a transfer still crossing the bus when a fault window closes
        #: is visible to reports, not silently in flight.
        self.transfers: int = 0
        self.bytes: int = 0
        #: Transfers whose bus crossing has finished.  ``transfers -
        #: completed`` is the engine's in-flight depth at any instant.
        self.completed: int = 0

    def transfer(self, nbytes: int) -> Generator:
        """Move ``nbytes`` across the bus on this channel."""
        self.transfers += 1
        self.bytes += nbytes
        req = self.channel.acquire()
        try:
            if req is not None:
                yield req
            yield from self.bus.dma_transfer(nbytes)
            self.completed += 1
        finally:
            self.channel.release(req)

    @property
    def in_flight(self) -> int:
        """Transfers admitted but not yet across the bus."""
        return self.transfers - self.completed

    def __repr__(self) -> str:
        return (f"<DmaEngine {self.name!r} transfers={self.transfers} "
                f"completed={self.completed} bytes={self.bytes}>")
