"""Calibrated machine configurations for the paper's two testbeds.

The paper measured FM 1.x on a SparcStation + SBus + Myrinet cluster and
FM 2.x on 200 MHz Pentium Pro PCs + PCI + Myrinet.  The parameter values
below were calibrated (see ``repro.bench.calibration`` and EXPERIMENTS.md)
so the simulated microbenchmarks land on the paper's headline numbers:

========================  ==================  ==================
metric                    paper               calibration target
========================  ==================  ==================
FM 1.x one-way latency    14 us               +/- 15%
FM 1.x peak bandwidth     17.6 MB/s           +/- 15%
FM 1.x N-half             54 bytes            +/- 30%
FM 2.x one-way latency    11 us               +/- 15%
FM 2.x peak bandwidth     77 MB/s             +/- 15%
FM 2.x N-half             < 256 bytes         hard bound
MPI-FM 1.x efficiency     ~20-35%             band
MPI-FM 2.x efficiency     70% @16B -> ~90%    band
========================  ==================  ==================

The architectural story the parameters encode:

* **FM 1.x / Sparc:** sends are programmed I/O over SBus (~22 MB/s), the
  dominant cost; receive DMA has a large per-packet startup; host memcpy is
  ~25 MB/s, so every extra copy at an API boundary costs as much as the wire.
  FM 1.x uses fixed 128-byte packet payloads.
* **FM 2.x / PPro:** sends are write-combined PIO over PCI (~84 MB/s);
  receive DMA ~132 MB/s (PCI); memcpy ~180 MB/s; Myrinet at 1.28 Gb/s.
  FM 2.x packetises streams into packets of up to 1024 payload bytes.
"""

from __future__ import annotations

from repro.hardware.params import (
    BusParams,
    CpuParams,
    LinkParams,
    MachineParams,
    NicParams,
    SwitchParams,
)

#: Myrinet wire rates (bytes/second).  The FM 1.x era hardware ran 640 Mb/s
#: links; the FM 2.x testbed ran 1.28 Gb/s.
MYRINET_640MBIT = 80e6
MYRINET_1280MBIT = 160e6


#: The FM 1.x testbed: SparcStation-class host on SBus.
SPARC_FM1 = MachineParams(
    name="sparc-sbus-myrinet (FM 1.x testbed)",
    cpu=CpuParams(
        clock_hz=60e6,
        memcpy_bw=25e6,
        memcpy_startup_ns=300,
        call_ns=250,
        poll_ns=400,
        per_packet_ns=400,
        per_message_ns=2600,
    ),
    bus=BusParams(
        pio_bw=25e6,
        pio_startup_ns=500,
        dma_bw=35e6,
        dma_startup_ns=2000,
    ),
    nic=NicParams(
        sram_packet_slots=8,
        recv_region_slots=256,
        firmware_send_ns=1000,
        firmware_recv_ns=900,
        rdma_match_ns=500,
        collective_step_ns=700,
    ),
    link=LinkParams(
        bandwidth=MYRINET_640MBIT,
        propagation_ns=100,
        slots=4,
    ),
    switch=SwitchParams(routing_ns=500, port_buffer_slots=4),
)


#: The FM 2.x testbed: 200 MHz Pentium Pro on PCI.
PPRO_FM2 = MachineParams(
    name="ppro200-pci-myrinet (FM 2.x testbed)",
    cpu=CpuParams(
        clock_hz=200e6,
        memcpy_bw=180e6,
        memcpy_startup_ns=150,
        call_ns=250,
        poll_ns=500,
        per_packet_ns=250,
        per_message_ns=2100,
    ),
    bus=BusParams(
        pio_bw=92e6,
        pio_startup_ns=250,
        dma_bw=132e6,
        dma_startup_ns=1000,
    ),
    nic=NicParams(
        sram_packet_slots=8,
        recv_region_slots=256,
        firmware_send_ns=1600,
        firmware_recv_ns=1600,
        rdma_match_ns=300,
        collective_step_ns=400,
    ),
    link=LinkParams(
        bandwidth=MYRINET_1280MBIT,
        propagation_ns=100,
        slots=8,
    ),
    switch=SwitchParams(routing_ns=500, port_buffer_slots=8),
)


#: FM protocol constants per generation (see repro.core.*.FmParams for use).
FM1_PACKET_PAYLOAD = 128     # fixed-size packets, short messages padded
FM2_MAX_PACKET_PAYLOAD = 1024  # variable-size packets up to this payload

#: Default per-peer credits (packets in flight before the sender stalls).
FM_DEFAULT_CREDITS = 16
#: Receiver returns credits after processing this many packets from a peer.
FM_CREDIT_BATCH = 8
