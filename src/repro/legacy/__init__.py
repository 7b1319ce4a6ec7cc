"""Legacy-protocol models: the motivation of Figure 1 and §2.2.

Traditional kernel-mode protocol stacks (UDP/TCP) carry a large fixed
per-packet processing overhead — the paper uses 125 µs, the best published
UDP figure of the era — which caps the bandwidth deliverable to the short
messages that dominate real traffic, no matter how fast the wire gets.
"""

from repro.legacy.stack import (
    ETHERNET_100MBIT,
    ETHERNET_1GBIT,
    FixedOverheadStack,
    LEGACY_UDP_OVERHEAD_US,
    theoretical_bandwidth_mbs,
)

__all__ = [
    "ETHERNET_100MBIT",
    "ETHERNET_1GBIT",
    "FixedOverheadStack",
    "LEGACY_UDP_OVERHEAD_US",
    "theoretical_bandwidth_mbs",
]
