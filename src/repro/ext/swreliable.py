"""Software reliability over the raw NICs: the §3.1 counterfactual.

FM provides reliable, in-order delivery by *relying on* the network's
properties and adding only flow control and buffer management; the paper
notes this made "unnecessary the source buffering, timeout, and retry that
would be otherwise required to provide reliable communication".  This
module implements exactly that otherwise-required machinery — a go-back-N
protocol with source buffering, cumulative acknowledgements and timeout
retransmission — over the same simulated hardware, bypassing FM entirely:

* every payload packet is **copied into a retransmit buffer** before
  transmission (``swrel.source_copy`` in the copy meter) and held until
  cumulatively acknowledged;
* the receiver CRC-checks every packet, **drops** corrupt or out-of-order
  ones (go-back-N keeps no reorder buffer), and returns cumulative ACKs;
* the sender retransmits the whole window on timeout, with an **adaptive
  RTO** (Jacobson/Karn SRTT estimation, exponential backoff on repeated
  timeouts) and **dup-ACK fast retransmit** (three duplicate cumulative
  ACKs trigger an immediate window resend without waiting out the RTO);
* retransmission cost is fully accounted (:meth:`SwReliablePair.stats`):
  wire bytes sent vs wasted on retransmission, timeouts vs fast
  retransmits, the RTT estimate, and the longest progress gap.

On a clean network it delivers the same guarantees as FM at a measurable
bandwidth cost (the Figure 2 story quantified on our substrate); on a
lossy network — bit-error bursts or outright packet drops, injected as
:class:`~repro.faults.LinkFault` episodes of a fault plan — it keeps
working, where FM, by design, fails loudly
(:class:`~repro.core.common.FmTransportError`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.cluster.cluster import Cluster
from repro.hardware.memory import Buffer
from repro.hardware.packet import (HEADER_BYTES, Packet, PacketFlags,
                                   PacketHeader, Site, framed)

#: Acknowledgement marking.  Deliberately NOT the CONTROL flag: the NIC
#: firmware intercepts CONTROL packets into the credit mailbox (an FM
#: mechanism); ACKs must reach the sender's receive region as ordinary
#: data so this protocol stays entirely above the raw hardware.
ACK_FLAG = PacketFlags.ACK | PacketFlags.FIRST | PacketFlags.LAST

IDLE_POLL_NS = 300


@dataclass(frozen=True)
class SwRelParams:
    """Protocol constants for the software-reliability shim."""

    payload_bytes: int = 512      # packet payload
    window: int = 8               # go-back-N window, in packets
    rto_ns: int = 300_000         # initial retransmission timeout
    ack_every: int = 1            # cumulative ACK frequency, in packets
    give_up_ns: int = 500_000_000  # abort threshold: max time *without progress*
    min_rto_ns: int = 150_000     # adaptive RTO floor (> full-window ACK latency)
    max_rto_ns: int = 10_000_000  # adaptive RTO ceiling (caps the backoff)
    dup_ack_threshold: int = 3    # duplicate ACKs that trigger fast retransmit

    def __post_init__(self) -> None:
        if self.payload_bytes < 1 or self.window < 1 or self.ack_every < 1:
            raise ValueError("payload, window and ack_every must be >= 1")
        if self.rto_ns < 1:
            raise ValueError("rto must be positive")
        if not 1 <= self.min_rto_ns <= self.rto_ns <= self.max_rto_ns:
            raise ValueError(
                f"need 1 <= min_rto_ns <= rto_ns <= max_rto_ns, got "
                f"{self.min_rto_ns}/{self.rto_ns}/{self.max_rto_ns}"
            )
        if self.dup_ack_threshold < 1:
            raise ValueError("dup_ack_threshold must be >= 1")
        if self.give_up_ns < 1:
            raise ValueError("give_up_ns must be positive")


@dataclass
class _Unacked:
    seq: int
    retransmit_copy: Buffer       # the source-buffered payload
    msg_id: int
    msg_bytes: int
    flags: PacketFlags            # pristine framing flags (a transmitted
                                  # packet's header may be fault-marked in
                                  # flight; retransmissions start clean)
    sent_at: int
    retransmitted: bool = False   # Karn: no RTT sample once retransmitted


class SwReliablePair:
    """A unidirectional reliable message channel node ``src`` -> ``dst``.

    ACKs flow back ``dst`` -> ``src`` as header-only packets.  Both sides
    are driven by the caller's programs (polled, like FM): the sender from
    inside :meth:`send_message`, the receiver via :meth:`deliver`.
    """

    def __init__(self, cluster: Cluster, src: int, dst: int,
                 params: Optional[SwRelParams] = None):
        if src == dst:
            raise ValueError("src and dst must differ")
        self.cluster = cluster
        self.env = cluster.env
        self.params = params or SwRelParams()
        if self.params.window > cluster.machine.nic.recv_region_slots:
            raise ValueError("window exceeds the receive region")
        self.src_node = cluster.node(src)
        self.dst_node = cluster.node(dst)
        self._retransmit_site = Site("swrel", "retransmit_window", f"node{src}/swrel",
                                     "why", "packets", "bytes", "rto_ns")
        # Sender state.
        self.next_seq = 0
        self.base = 0                      # oldest unacknowledged seq
        self.outstanding: deque[_Unacked] = deque()
        self.retransmissions = 0
        self.rto_ns = self.params.rto_ns   # current (adaptive) RTO
        self._srtt = 0                     # smoothed RTT (0 = no sample yet)
        self._rttvar = 0
        self._dup_acks = 0
        self._fast_retransmit_due = False
        # Accounting (the bytes-wasted surface for the resilience sweep).
        self.timeouts = 0
        self.fast_retransmits = 0
        self.acks_received = 0
        self.wire_bytes_sent = 0
        self.retransmitted_wire_bytes = 0
        self.max_progress_gap_ns = 0
        # Receiver state.
        self.expected_seq = 0
        self.drops = 0                     # corrupt or out-of-order discards
        self.delivered_bytes = 0
        self._assembly = bytearray()
        self._delivered: deque[bytes] = deque()
        self._acks_since_send = 0
        self._next_msg_id = 0

    # -- sender side -----------------------------------------------------------
    def send_message(self, data: bytes) -> Generator:
        """Send one message reliably; returns when fully acknowledged."""
        node = self.src_node
        params = self.params
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        chunks = [data[i: i + params.payload_bytes]
                  for i in range(0, len(data), params.payload_bytes)] or [b""]
        for index, chunk in enumerate(chunks):
            # Wait for window space (absorbing ACKs, retransmitting on RTO).
            # Bounded like drain(): a dead channel must raise, not spin
            # simulated time forever.
            yield from self._service_until(
                lambda: len(self.outstanding) < params.window)
            flags = framed(PacketFlags.NONE, index == 0,
                           index == len(chunks) - 1)
            header = PacketHeader(
                src=self.src_node.node_id, dest=self.dst_node.node_id,
                handler_id=0, msg_id=msg_id, seq=self.next_seq,
                msg_bytes=len(data), flags=flags)
            # Source buffering: the retransmit copy FM never needs.
            retransmit_copy = Buffer(len(chunk), name="swrel.retransmit")
            if chunk:
                source = Buffer.from_bytes(chunk, name="swrel.user")
                yield from node.cpu.memcpy(source, 0, retransmit_copy, 0,
                                           len(chunk),
                                           label="swrel.source_copy")
            yield from self._transmit(header, bytes(chunk))
            self.outstanding.append(_Unacked(
                self.next_seq, retransmit_copy, msg_id, len(data), flags,
                self.env.now))
            self.next_seq += 1
        yield from self.drain()

    def drain(self) -> Generator:
        """Service the window until every sent packet is acknowledged."""
        yield from self._service_until(lambda: not self.outstanding)

    def _service_until(self, ready: Callable[[], bool]) -> Generator:
        """Service the sender until ``ready()``, bounded by the give-up clock.

        The clock measures time since the window *last advanced* and resets
        on every advance, so only a genuinely stuck channel trips it — a
        long transfer that is steadily (if slowly) progressing through a
        lossy link never does, no matter its total duration.
        """
        env = self.env
        last_progress = env.now
        while not ready():
            before = self.base
            yield from self._sender_service()
            if self.base != before:
                gap = env.now - last_progress
                if gap > self.max_progress_gap_ns:
                    self.max_progress_gap_ns = gap
                last_progress = env.now
            elif env.now - last_progress > self.params.give_up_ns:
                raise RuntimeError(
                    f"swrel sender gave up at seq base {self.base}: no ACK "
                    f"progress for {env.now - last_progress} ns "
                    f"(window {len(self.outstanding)}, "
                    f"{self.retransmissions} retransmissions)"
                )

    def _sender_service(self) -> Generator:
        """One poll step: absorb ACKs, retransmit (fast or on RTO), else idle."""
        node = self.src_node
        yield from node.cpu.poll()
        progressed = False
        while True:
            packet = node.nic.recv_region.try_get()
            if packet is None:
                break
            yield from node.cpu.per_packet()
            if not packet.crc_ok():
                continue          # a corrupt ACK: later cumulative ones cover it
            if packet.header.flags & PacketFlags.ACK:
                self.acks_received += 1
                progressed |= self._absorb_ack(packet.header.credit_return)
        if self._fast_retransmit_due:
            # Three duplicate ACKs: the receiver is alive and repeating
            # itself, so the head of the window is lost — resend now
            # instead of waiting out the RTO.
            self._fast_retransmit_due = False
            self._dup_acks = 0
            self.fast_retransmits += 1
            yield from self._retransmit_window("fast")
            progressed = True
        elif (self.outstanding
                and self.env.now - self.outstanding[0].sent_at >= self.rto_ns):
            self.timeouts += 1
            yield from self._retransmit_window("timeout")
            # Exponential backoff: a repeatedly silent channel gets probed
            # at a falling rate until an RTT sample resets the estimate.
            self.rto_ns = min(self.rto_ns * 2, self.params.max_rto_ns)
            progressed = True
        if not progressed:
            yield IDLE_POLL_NS

    def _absorb_ack(self, ack_next: int) -> bool:
        """Cumulative ACK: everything below ``ack_next`` is delivered."""
        progressed = False
        rtt_sample = None
        while self.outstanding and self.outstanding[0].seq < ack_next:
            entry = self.outstanding.popleft()
            if not entry.retransmitted:     # Karn: retransmits are ambiguous
                rtt_sample = self.env.now - entry.sent_at
            progressed = True
        if progressed:
            self.base = ack_next
            self._dup_acks = 0
            self._fast_retransmit_due = False
            if rtt_sample is not None:
                self._update_rto(rtt_sample)
        elif self.outstanding and ack_next == self.base:
            # A duplicate of the current cumulative ACK: the receiver got
            # something out of order, i.e. the head of our window is gone.
            self._dup_acks += 1
            if self._dup_acks >= self.params.dup_ack_threshold:
                self._fast_retransmit_due = True
        return progressed

    def _update_rto(self, sample: int) -> None:
        """Jacobson's estimator (integer ns): RTO = SRTT + 4*RTTVAR, clamped."""
        if self._srtt == 0:
            self._srtt = sample
            self._rttvar = sample // 2
        else:
            err = sample - self._srtt
            self._srtt += err >> 3
            self._rttvar += (abs(err) - self._rttvar) >> 2
        self.rto_ns = min(max(self._srtt + 4 * self._rttvar,
                              self.params.min_rto_ns),
                          self.params.max_rto_ns)

    def _retransmit_window(self, why: str) -> Generator:
        """Go-back-N: resend every outstanding packet, oldest first."""
        obs = self.env.obs
        t0 = self.env.now
        resent_bytes = 0
        for entry in list(self.outstanding):
            self.retransmissions += 1
            header = PacketHeader(
                src=self.src_node.node_id, dest=self.dst_node.node_id,
                handler_id=0, msg_id=entry.msg_id, seq=entry.seq,
                msg_bytes=entry.msg_bytes, flags=entry.flags)
            payload = entry.retransmit_copy.read()
            resent_bytes += HEADER_BYTES + len(payload)
            yield from self._transmit(header, payload)
            entry.sent_at = self.env.now
            entry.retransmitted = True
        self.retransmitted_wire_bytes += resent_bytes
        if obs is not None and resent_bytes:
            obs.record(self._retransmit_site, t0, why, len(self.outstanding),
                       resent_bytes, self.rto_ns)

    def _transmit(self, header: PacketHeader, payload: bytes) -> Generator:
        node = self.src_node
        packet = Packet(header, payload)
        self.cluster.fabric.stamp_route(packet)
        self.wire_bytes_sent += packet.wire_bytes
        yield from node.cpu.per_packet()
        yield from node.bus.pio_write(node.cpu, packet.wire_bytes)
        yield from node.nic.submit(packet)

    # -- receiver side -----------------------------------------------------------
    def deliver(self) -> Generator:
        """Process arrived packets; returns newly completed messages."""
        node = self.dst_node
        yield from node.cpu.poll()
        ack_due = False
        while True:
            packet = node.nic.recv_region.try_get()
            if packet is None:
                break
            yield from node.cpu.per_packet()
            header = packet.header
            if not packet.crc_ok():
                self.drops += 1          # corrupt: drop, let the RTO recover
                ack_due = True           # dup-ACK hints the sender
                continue
            if header.seq != self.expected_seq:
                self.drops += 1          # go-back-N: no reorder buffer
                ack_due = True
                continue
            self.expected_seq += 1
            self._acks_since_send += 1
            if header.is_first:
                self._assembly.clear()
            self._assembly += packet.payload
            if header.is_last:
                self._delivered.append(bytes(self._assembly))
                self.delivered_bytes += len(self._assembly)
                self._assembly.clear()
            if self._acks_since_send >= self.params.ack_every:
                ack_due = True
        if ack_due:
            yield from self._send_ack()
        out = list(self._delivered)
        self._delivered.clear()
        return out

    def _send_ack(self) -> Generator:
        node = self.dst_node
        self._acks_since_send = 0
        header = PacketHeader(
            src=self.dst_node.node_id, dest=self.src_node.node_id,
            handler_id=0, msg_id=0, seq=0, msg_bytes=0, flags=ACK_FLAG)
        header.credit_return = self.expected_seq   # cumulative next-expected
        packet = Packet(header, b"")
        self.cluster.fabric.stamp_route(packet)
        yield from node.cpu.per_packet()
        yield from node.bus.pio_write(node.cpu, HEADER_BYTES)
        yield from node.nic.submit(packet)

    # -- accounting -----------------------------------------------------------
    def stats(self) -> dict:
        """The retransmission / bytes-wasted accounting surface."""
        wasted = self.retransmitted_wire_bytes
        total = self.wire_bytes_sent
        return {
            "retransmissions": self.retransmissions,
            "timeouts": self.timeouts,
            "fast_retransmits": self.fast_retransmits,
            "acks_received": self.acks_received,
            "drops": self.drops,
            "wire_bytes_sent": total,
            "retransmitted_wire_bytes": wasted,
            "wasted_fraction": wasted / total if total else 0.0,
            "delivered_bytes": self.delivered_bytes,
            "srtt_ns": self._srtt,
            "rto_ns": self.rto_ns,
            "max_progress_gap_ns": self.max_progress_gap_ns,
        }

    def __repr__(self) -> str:
        return (f"<SwReliablePair {self.src_node.node_id}->"
                f"{self.dst_node.node_id} base={self.base} "
                f"next={self.next_seq} rexmit={self.retransmissions} "
                f"drops={self.drops} rto={self.rto_ns}ns>")
