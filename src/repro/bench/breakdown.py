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

Stages 1-2 are the ``link-stream`` and ``bus-stream`` patterns of
``kind="micro"``: a deliberately stripped "lean" driver below that bypasses
the FM layer (as the paper's staged prototypes bypassed the full library),
``link-stream`` on a machine whose I/O bus costs nothing; stage 3 is the
real FM 1.x stream, ``fm-stream``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.hardware.packet import Packet, PacketFlags, PacketHeader
from repro.hardware.params import MachineParams

from repro.bench.microbench import IDLE_POLL_NS, StreamResult
from repro.cluster.cluster import Cluster

if TYPE_CHECKING:  # pragma: no cover
    from repro.bench.micro import MicroScenario
    from repro.bench.sweeps import SweepResult


#: Figure 3(a)'s curves, top to bottom: stage name -> the stream pattern
#: that measures it.
STAGES = {"Link Mgmt": "link-stream", "I/O bus Mgmt": "bus-stream",
          "Flow Control": "fm-stream"}


#: Driver cost per packet for the lean (stage 1-2) path: a few instructions
#: to write a descriptor, far below FM's full per-packet bookkeeping.
LEAN_PER_PACKET_NS = 300


def free_bus(machine: MachineParams) -> MachineParams:
    """A machine whose I/O bus is infinitely fast (stage 1)."""
    return machine.with_bus(pio_bw=1e15, pio_startup_ns=0,
                            dma_bw=1e15, dma_startup_ns=0)


def lean_stream(cluster: Cluster, msg_bytes: int, n_messages: int,
                packet_payload: int = 128) -> StreamResult:
    """Streaming node 0 -> node 1 through the lean driver (no FM, no flow
    control)."""
    env = cluster.env
    n_packets_per_msg = max(1, -(-msg_bytes // packet_payload))
    total_packets = n_packets_per_msg * n_messages
    span = [0, 0]   # first send, last packet in

    def sender(node):
        span[0] = env.now
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
        span[1] = env.now

    cluster.run([sender, receiver])
    return StreamResult.of(msg_bytes, n_messages, span[1] - span[0])


def breakdown_sweep(stream: "MicroScenario",
                    sizes: Sequence[int]) -> list["SweepResult"]:
    """The three Figure 3(a) curves, top to bottom, on the machine and at
    the stream length of the FM 1.x stream microbenchmark ``stream``."""
    # Not on top: sweeps imports the runner, whose micro kind imports this.
    from repro.bench.sweeps import bandwidth_sweep

    return [bandwidth_sweep(replace(stream, pattern=pattern), sizes, name)
            for name, pattern in STAGES.items()]
