"""Simulated cluster hardware substrate.

This package models the mid-1990s cluster hardware the paper's measurements
were taken on, at the fidelity the paper's phenomena require:

* :mod:`~repro.hardware.params` — parameter dataclasses for CPU, memory,
  I/O bus, NIC and link; calibrated instances live in :mod:`repro.configs`.
* :mod:`~repro.hardware.memory` — host buffers and a byte-accurate copy
  model (every copy moves real bytes *and* costs simulated time).
* :mod:`~repro.hardware.cpu` — the host CPU cost model and execution lock.
* :mod:`~repro.hardware.bus` / :mod:`~repro.hardware.dma` — the I/O bus
  (SBus / PCI) with PIO and DMA transfer engines.
* :mod:`~repro.hardware.packet` — wire packets and the span ``Site`` handle.
* :mod:`~repro.hardware.link` — full-duplex Myrinet-style links with
  slot-based back-pressure and optional error injection.
* :mod:`~repro.hardware.switch` — source-routed crossbar switches.
* :mod:`~repro.hardware.nic` — a LANai-style NIC: firmware send/receive
  loops, on-board SRAM staging, host send queue and receive region.
* :mod:`~repro.hardware.fabric` / :mod:`~repro.hardware.topology` — wiring
  hosts and switches into a network with computed source routes.
"""

from repro.hardware.params import (
    BusParams,
    CpuParams,
    LinkParams,
    MachineParams,
    NicParams,
)
from repro.hardware.memory import Buffer, CopyMeter
from repro.hardware.cpu import HostCpu
from repro.hardware.bus import IoBus
from repro.hardware.dma import DmaEngine
from repro.hardware.packet import HEADER_BYTES, Packet, PacketHeader
from repro.hardware.link import Link
from repro.hardware.switch import Switch
from repro.hardware.nic import Nic
from repro.hardware.fabric import Fabric
from repro.hardware.topology import Topology, single_switch, switch_chain, fat_tree_2level

__all__ = [
    "Buffer",
    "BusParams",
    "CopyMeter",
    "CpuParams",
    "DmaEngine",
    "Fabric",
    "HEADER_BYTES",
    "HostCpu",
    "IoBus",
    "Link",
    "LinkParams",
    "MachineParams",
    "Nic",
    "NicParams",
    "Packet",
    "PacketHeader",
    "Switch",
    "Topology",
    "fat_tree_2level",
    "single_switch",
    "switch_chain",
]
