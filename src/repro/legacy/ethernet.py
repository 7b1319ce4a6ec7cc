"""Ethernet wire parameters and a simple serialising wire model.

Only the serialisation rate matters for Figure 1 (the figure is explicitly
"theoretical bandwidth assuming a fixed 125 µs protocol processing
overhead"), but the wire model below is also usable inside the simulator
for side-by-side demos against Myrinet/FM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, TYPE_CHECKING

from repro.simkernel.units import transfer_time_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment

#: Wire rates in bytes/second.
ETHERNET_10MBIT = 10e6 / 8
ETHERNET_100MBIT = 100e6 / 8
ETHERNET_1GBIT = 1e9 / 8

#: Per-frame wire framing: preamble(8) + MAC header(14) + FCS(4) + IFG(12).
FRAME_OVERHEAD_BYTES = 38
#: Minimum Ethernet payload.
MIN_PAYLOAD = 46
MAX_PAYLOAD = 1500


@dataclass
class EthernetWire:
    """A shared half-duplex wire that serialises frames at the link rate."""

    rate: float = ETHERNET_100MBIT

    def frame_bytes(self, payload: int) -> int:
        if payload > MAX_PAYLOAD:
            raise ValueError(f"payload {payload} exceeds Ethernet MTU {MAX_PAYLOAD}")
        return max(payload, MIN_PAYLOAD) + FRAME_OVERHEAD_BYTES

    def wire_time_ns(self, payload: int) -> int:
        return transfer_time_ns(self.frame_bytes(payload), self.rate)

    def transmit(self, env: "Environment", payload: int) -> Generator:
        """Occupy the wire for one frame (simulation helper)."""
        yield self.wire_time_ns(payload)
