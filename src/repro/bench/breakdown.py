"""Figure 3(a): FM 1.x overhead breakdown by substrate stage.

The paper builds the FM 1.x send path up in three stages and measures the
bandwidth after each addition:

1. **Link Mgmt** — "the simplest code needed to operate the link DMAs":
   packets move NIC-to-NIC with data already on the interfaces; no I/O bus
   crossing, no flow control, a minimal per-packet driver cost.
2. **I/O bus Mgmt** — adds the SBus crossing: programmed I/O on the send
   side and DMA into host memory on the receive side — the step that costs
   most of the raw link bandwidth.
3. **Flow Control** — adds credits, credit-return traffic and buffer
   management: the full FM 1.x protocol (this stage equals Figure 3(b)).

Stages 1-2 are driven by a deliberately stripped "lean" driver below that
bypasses the FM layer (as the paper's staged prototypes bypassed the full
library); stage 3 is the real FM 1.x measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hardware.packet import Packet, PacketFlags, PacketHeader
from repro.hardware.params import MachineParams

from repro.bench.micro import MicroScenario
from repro.bench.microbench import IDLE_POLL_NS
from repro.bench.sweeps import SweepResult, bandwidth_sweep, sweep_with
from repro.cluster.cluster import Cluster
from repro.scenario import MACHINES


@dataclass(frozen=True)
class Stage:
    name: str
    cross_bus: bool       # charge PIO (send) and DMA (receive)
    flow_control: bool    # full FM 1.x instead of the lean driver


STAGES = (
    Stage("Link Mgmt", cross_bus=False, flow_control=False),
    Stage("I/O bus Mgmt", cross_bus=True, flow_control=False),
    Stage("Flow Control", cross_bus=True, flow_control=True),
)

#: Driver cost per packet for the lean (stage 1-2) path: a few instructions
#: to write a descriptor, far below FM's full per-packet bookkeeping.
LEAN_PER_PACKET_NS = 300


def _free_bus(machine: MachineParams) -> MachineParams:
    """A machine whose I/O bus is infinitely fast (stage 1)."""
    return machine.with_bus(pio_bw=1e15, pio_startup_ns=0,
                            dma_bw=1e15, dma_startup_ns=0)


def lean_stream_bandwidth_mbs(machine: MachineParams, msg_bytes: int,
                              n_messages: int = 60,
                              packet_payload: int = 128) -> float:
    """Streaming bandwidth of the lean driver (no FM, no flow control)."""
    cluster = Cluster(2, machine=machine, fm_version=1)
    env = cluster.env
    src, dst = cluster.node(0), cluster.node(1)
    n_packets_per_msg = max(1, -(-msg_bytes // packet_payload))
    total_packets = n_packets_per_msg * n_messages
    marks = {}

    def sender(node):
        marks["start"] = env.now
        for m in range(n_messages):
            remaining = msg_bytes
            seq = 0
            while True:
                take = min(packet_payload, remaining)
                header = PacketHeader(src=0, dest=1, handler_id=0,
                                      msg_id=m, seq=seq, msg_bytes=msg_bytes,
                                      flags=PacketFlags.FIRST | PacketFlags.LAST)
                packet = Packet(header, bytes(take))
                cluster.fabric.stamp_route(packet)
                yield from node.cpu.execute(LEAN_PER_PACKET_NS)
                yield from node.bus.pio_write(node.cpu, packet.wire_bytes)
                yield from node.nic.submit(packet)
                remaining -= take
                seq += 1
                if remaining <= 0:
                    break

    def receiver(node):
        got = 0
        while got < total_packets:
            packet = node.nic.recv_region.try_get()
            if packet is None:
                yield IDLE_POLL_NS
                continue
            yield from node.cpu.execute(LEAN_PER_PACKET_NS)
            got += 1
        marks["end"] = env.now

    cluster.run([sender, receiver])
    elapsed = marks["end"] - marks["start"]
    return msg_bytes * n_messages / (elapsed / 1e9) / 1e6


def breakdown_sweep(stream: MicroScenario,
                    sizes: Sequence[int]) -> list[SweepResult]:
    """The three Figure 3(a) curves, top to bottom, on the machine and at
    the stream length of the FM 1.x stream microbenchmark ``stream``."""
    results = []
    for stage in STAGES:
        if stage.flow_control:
            results.append(bandwidth_sweep(stream, sizes, stage.name))
            continue
        machine = MACHINES[stream.machine]
        stage_machine = machine if stage.cross_bus else _free_bus(machine)
        results.append(sweep_with(
            lambda size: lean_stream_bandwidth_mbs(stage_machine, size,
                                                   stream.n_requests),
            sizes, stage.name))
    return results
