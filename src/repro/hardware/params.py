"""Hardware parameter dataclasses.

All bandwidths are **bytes/second**, all fixed costs are **integer
nanoseconds**.  Calibrated machine instances (the Sparc/SBus testbed of
FM 1.x and the 200 MHz Pentium Pro / PCI testbed of FM 2.x) are defined in
:mod:`repro.configs`; this module only defines the shapes and validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


def _check_positive(name: str, value) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _check_nonneg(name: str, value) -> None:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class CpuParams:
    """Host CPU cost model.

    ``memcpy_bw`` is the sustained host memory-to-memory copy bandwidth; it
    prices every data copy the protocol stack performs, which is the quantity
    the paper's copy-elimination argument turns on.
    """

    clock_hz: float
    memcpy_bw: float            # bytes/s, host memcpy sustained bandwidth
    memcpy_startup_ns: int      # fixed cost per copy call (loop setup, cache)
    call_ns: int                # function call / handler dispatch cost
    poll_ns: int                # one poll of the NIC status word (uncached read)
    per_packet_ns: int          # protocol bookkeeping per packet (header parse etc.)
    per_message_ns: int         # protocol bookkeeping per message (API crossing)

    def __post_init__(self) -> None:
        _check_positive("clock_hz", self.clock_hz)
        _check_positive("memcpy_bw", self.memcpy_bw)
        for name in ("memcpy_startup_ns", "call_ns", "poll_ns", "per_packet_ns",
                     "per_message_ns"):
            _check_nonneg(name, getattr(self, name))

    def cycles(self, n: int) -> int:
        """Convert CPU cycles to nanoseconds (rounded)."""
        return round(n * 1e9 / self.clock_hz)


@dataclass(frozen=True)
class BusParams:
    """I/O bus (SBus or PCI) cost model.

    FM sends with **programmed I/O** (the host CPU writes payload words
    across the bus into NIC SRAM; on the PPro, write-combining makes this the
    fastest path) and receives with **DMA**.  ``pio_bw`` therefore bounds the
    send path and is what limits FM 1.x to ~18 MB/s on SBus and FM 2.x to
    ~80 MB/s on PCI.
    """

    pio_bw: float               # bytes/s, CPU programmed-I/O write bandwidth
    pio_startup_ns: int         # fixed cost to set up a PIO burst
    dma_bw: float               # bytes/s, DMA transfer bandwidth
    dma_startup_ns: int         # DMA descriptor setup + arbitration

    def __post_init__(self) -> None:
        _check_positive("pio_bw", self.pio_bw)
        _check_positive("dma_bw", self.dma_bw)
        _check_nonneg("pio_startup_ns", self.pio_startup_ns)
        _check_nonneg("dma_startup_ns", self.dma_startup_ns)


@dataclass(frozen=True)
class NicParams:
    """LANai-style network interface parameters.

    The RDMA/collective fields price the firmware extension paths only:
    they are never charged on the FM 1.x/2.x data path, so adding them
    leaves every existing scenario byte-identical.
    """

    sram_packet_slots: int      # on-board packet staging slots (each direction)
    recv_region_slots: int      # host receive region capacity, in packets
    firmware_send_ns: int       # firmware processing per packet, send side
    firmware_recv_ns: int       # firmware processing per packet, receive side
    rdma_match_ns: int = 300    # firmware match of an RDMA packet to a region
    collective_step_ns: int = 400  # firmware work per collective state step

    def __post_init__(self) -> None:
        for name in ("sram_packet_slots", "recv_region_slots"):
            _check_positive(name, getattr(self, name))
        _check_nonneg("firmware_send_ns", self.firmware_send_ns)
        _check_nonneg("firmware_recv_ns", self.firmware_recv_ns)
        _check_nonneg("rdma_match_ns", self.rdma_match_ns)
        _check_nonneg("collective_step_ns", self.collective_step_ns)


@dataclass(frozen=True)
class LinkParams:
    """A Myrinet-style point-to-point link.

    ``slots`` bounds packets in flight per hop: when the downstream input
    buffer is full the link stalls, which is the slot-granular analogue of
    Myrinet's byte-granular back-pressure (STOP/GO) flow control.
    A link never corrupts or loses a packet on its own (Myrinet's measured
    error rate was effectively zero; FM's reliability argument depends on
    this): a noisy or lossy link is a :class:`repro.faults.LinkFault`
    episode in a fault plan.
    """

    bandwidth: float            # bytes/s (Myrinet: 1.28 Gb/s = 160e6 B/s)
    propagation_ns: int         # cable + pipeline latency per hop
    slots: int                  # downstream buffer slots (back-pressure window)

    def __post_init__(self) -> None:
        _check_positive("bandwidth", self.bandwidth)
        _check_nonneg("propagation_ns", self.propagation_ns)
        _check_positive("slots", self.slots)


@dataclass(frozen=True)
class SwitchParams:
    """Crossbar switch parameters."""

    routing_ns: int = 300       # route decode + arbitration per packet
    port_buffer_slots: int = 4  # input buffering per port, in packets

    def __post_init__(self) -> None:
        _check_nonneg("routing_ns", self.routing_ns)
        _check_positive("port_buffer_slots", self.port_buffer_slots)


@dataclass(frozen=True)
class MachineParams:
    """A complete host configuration: CPU + bus + NIC + its link."""

    name: str
    cpu: CpuParams
    bus: BusParams
    nic: NicParams
    link: LinkParams
    switch: SwitchParams = field(default_factory=SwitchParams)

    def with_link(self, **changes) -> "MachineParams":
        """A copy with modified link parameters (fault injection helper)."""
        return replace(self, link=replace(self.link, **changes))

    def with_cpu(self, **changes) -> "MachineParams":
        return replace(self, cpu=replace(self.cpu, **changes))

    def with_bus(self, **changes) -> "MachineParams":
        return replace(self, bus=replace(self.bus, **changes))

    def with_nic(self, **changes) -> "MachineParams":
        return replace(self, nic=replace(self.nic, **changes))
