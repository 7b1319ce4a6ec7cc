"""The fixed-overhead legacy protocol stack (Figure 1, §2.2).

The paper's motivating arithmetic: the fastest UDP implementations of the
era spent ~125 µs of protocol processing per packet, so for typical packet
sizes (< 256 bytes) no more than ~2 MB/s could be sustained — regardless of
a 100 Mbit or 1 Gbit wire.  :func:`theoretical_bandwidth_mbs` is exactly
the formula behind Figure 1; :class:`FixedOverheadStack` additionally runs
the same pipeline in the simulator (overhead then wire, per packet) so the
model is exercised by code, not just algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simkernel.env import Environment
from repro.simkernel.units import us

#: The paper's per-packet protocol processing overhead (§2.2).
LEGACY_UDP_OVERHEAD_US = 125.0

#: Ethernet wire rates in bytes/second.
ETHERNET_100MBIT = 100e6 / 8
ETHERNET_1GBIT = 1e9 / 8


def theoretical_bandwidth_mbs(msg_bytes: int, wire_rate_bytes_per_sec: float,
                              overhead_us: float = LEGACY_UDP_OVERHEAD_US) -> float:
    """Bandwidth (MB/s) of a fixed-overhead stack for one message size.

    ``BW(S) = S / (overhead + S / wire_rate)`` — each packet pays the full
    protocol processing cost before its bytes can be serialised.
    """
    if msg_bytes <= 0:
        raise ValueError(f"message size must be positive, got {msg_bytes}")
    if wire_rate_bytes_per_sec <= 0:
        raise ValueError("wire rate must be positive")
    if overhead_us < 0:
        raise ValueError("overhead must be non-negative")
    seconds = overhead_us * 1e-6 + msg_bytes / wire_rate_bytes_per_sec
    return msg_bytes / seconds / 1e6


@dataclass
class FixedOverheadStack:
    """A kernel-stack model: fixed CPU overhead, then the wire, per packet."""

    wire_rate: float
    overhead_us: float = LEGACY_UDP_OVERHEAD_US

    def measure_bandwidth_mbs(self, msg_bytes: int, n_messages: int = 20) -> float:
        """Simulate a stream of packets through the stack and time it.

        The protocol processing of packet ``i+1`` cannot overlap the
        processing of packet ``i`` (single kernel path), but it can overlap
        the wire time — matching how the analytic curve treats the overhead
        as the dominant serial term.
        """
        env = Environment()
        overhead_ns = us(self.overhead_us)
        wire_ns = max(1, round(msg_bytes / self.wire_rate * 1e9))
        done = {}

        def pipeline():
            wire_free_at = 0
            for _ in range(n_messages):
                yield overhead_ns                       # protocol processing
                start = max(env.now, wire_free_at)      # wait for the wire
                if start > env.now:
                    yield start - env.now
                wire_free_at = env.now + wire_ns
            # Last packet must finish serialising.
            yield wire_free_at - env.now
            done["at"] = env.now

        env.process(pipeline())
        env.run()
        return msg_bytes * n_messages / (done["at"] / 1e9) / 1e6
