"""Machinery shared by both Fast Messages generations.

* :class:`FmParams` — protocol constants (packet size, credits).
* :class:`HandlerTable` — registration of user message handlers.
* :class:`FmEndpoint` — per-node protocol state common to FM 1.x and 2.x:
  message-id allocation, the sender-side credit ledger, credit returns,
  packet construction and injection (PIO across the I/O bus + NIC submit),
  and the event-based idle wait every layer above FM sleeps in.

Flow control is the credit scheme of FM 1.x, retained by 2.x (§4.1 "the
FM 2.x API retains the service guarantees of FM 1.x"): the receiver's host
receive region is logically partitioned per sender; a sender holds
``credits_per_peer`` credits per destination, spends one per data packet,
and stalls when out.  The receiver returns credits in batches once packets
have been *processed by extract* (i.e. their region slot is free again), as
control packets that the receiving NIC's firmware absorbs into a
host-visible mailbox — so credit returns are never blocked behind data.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.hardware.bus import IoBus
from repro.hardware.cpu import HostCpu
from repro.hardware.fabric import Fabric
from repro.hardware.nic import Nic
from repro.hardware.packet import (Packet, PacketFlags, PacketHeader, Site,
                                   framed)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment

#: Conventional handler return value (the paper's handlers return
#: ``FM_CONTINUE``); accepted and ignored by the extract loops.
FM_CONTINUE = 0

#: Cap on one event-based idle wait (:meth:`FmEndpoint.idle_wait`): a
#: waiter that missed its wakeup (another process on this node extracted
#: its data with no fresh receive-region deposit) re-checks at least this
#: often, without reverting to a fine-grained poll.
IDLE_WAIT_CAP_NS = 20_000


class FmError(Exception):
    """Base class for Fast Messages protocol errors."""


class FmProtocolError(FmError):
    """API misuse: piece overflow, size mismatch, unknown handler id."""


class FmTransportError(FmError):
    """A transport-integrity failure detected at an FM endpoint — fail loud.

    FM provides reliability by *construction* on top of a well-behaved
    network; when fault injection breaks that assumption, the endpoint's
    job is to fail **loudly and diagnosably** rather than hang or deliver
    silently corrupted data.  The exception therefore carries everything
    the extract path knew about the offending packet — which node
    detected it, who sent it, which message/sequence it belonged to, when,
    and the packet's full waypoint journey — rendered by :meth:`diagnose`.
    """

    def __init__(self, message: str, *, node: Optional[int] = None,
                 src: Optional[int] = None, msg_id: Optional[int] = None,
                 seq: Optional[int] = None, handler_id: Optional[int] = None,
                 time_ns: Optional[int] = None, waypoints: tuple = ()):
        super().__init__(message)
        self.node = node
        self.src = src
        self.msg_id = msg_id
        self.seq = seq
        self.handler_id = handler_id
        self.time_ns = time_ns
        self.waypoints = tuple(waypoints)

    def diagnose(self) -> str:
        """A multi-line report: identity, timing, and the packet's journey."""
        lines = [str(self)]
        lines.append(
            f"  detected at node {self.node} at t={self.time_ns} ns; "
            f"packet src={self.src} msg_id={self.msg_id} seq={self.seq} "
            f"handler={self.handler_id}"
        )
        if self.waypoints:
            lines.append("  journey:")
            prev_time = self.waypoints[0][1]
            for location, time_ns, *_hop in self.waypoints:
                lines.append(f"    {time_ns:>12} ns  (+{time_ns - prev_time:>8})  {location}")
                prev_time = time_ns
        return "\n".join(lines)


class FmCorruptionError(FmTransportError):
    """A corrupted packet reached an FM endpoint.

    FM provides reliability by *construction* on top of an error-free
    network (Myrinet's measured bit error rate was effectively zero, §3.1);
    it has no retransmission machinery, so corruption is unrecoverable at
    this layer.  Raised only when fault injection is enabled on a link.
    """


class FmStalledError(FmError):
    """A sender spun on credits for longer than ``FmParams.stall_limit_ns``.

    In a correctly progressing application this cannot happen: the receiver
    eventually calls extract and credits flow back.  The limit exists so
    that protocol deadlocks fail loudly in tests instead of spinning the
    simulation forever.
    """


@dataclass(frozen=True)
class FmParams:
    """Protocol constants for one FM endpoint."""

    packet_payload: int          # payload bytes per packet (FM1: fixed; FM2: max)
    credits_per_peer: int = 16   # packets in flight per destination
    credit_batch: int = 8        # receiver returns credits in batches this big
    stall_limit_ns: int = 100_000_000   # credit-stall abort threshold (100 ms)
    #: Spin delay while waiting for credits (one status poll per spin).
    credit_spin_ns: int = 0      # extra backoff on top of the poll cost

    def __post_init__(self) -> None:
        if self.packet_payload < 1:
            raise ValueError(f"packet_payload must be >= 1, got {self.packet_payload}")
        if self.credits_per_peer < 1:
            raise ValueError(f"credits_per_peer must be >= 1, got {self.credits_per_peer}")
        if not 1 <= self.credit_batch <= self.credits_per_peer:
            raise ValueError(
                f"credit_batch must be in [1, credits_per_peer], got {self.credit_batch}"
            )

    def packets_for(self, nbytes: int) -> int:
        """Packets needed for a message of ``nbytes`` (0 bytes -> 1 packet)."""
        if nbytes <= 0:
            return 1
        return -(-nbytes // self.packet_payload)


class HandlerTable:
    """Registered message handlers, addressed by small integer ids."""

    def __init__(self) -> None:
        self._handlers: list[Callable] = []

    def register(self, handler: Callable) -> int:
        """Register a handler generator-function, returning its id."""
        if not callable(handler):
            raise TypeError(f"handler must be callable, got {handler!r}")
        self._handlers.append(handler)
        return len(self._handlers) - 1

    def lookup(self, handler_id: int) -> Callable:
        if not 0 <= handler_id < len(self._handlers):
            raise FmProtocolError(f"unknown handler id {handler_id}")
        return self._handlers[handler_id]

    def __len__(self) -> int:
        return len(self._handlers)


class FmEndpoint:
    """State and send-side machinery shared by FM 1.x and FM 2.x."""

    def __init__(self, env: "Environment", node_id: int, cpu: HostCpu, bus: IoBus,
                 nic: Nic, fabric: Fabric, params: FmParams):
        self.env = env
        self.node_id = node_id
        self.cpu = cpu
        self.bus = bus
        self.nic = nic
        self.fabric = fabric
        self.params = params
        self._track = track = f"node{node_id}/fm"
        # Span sites share one namespace: an attribute each would take an
        # FM 2.x endpoint past the 30 a CPython instance keeps inline.
        self._sites = SimpleNamespace(
            credit_stall=Site("fm", "credit_stall", track, "dest"),
            inject=Site("fm", "inject", track, "dest", "pio_bytes", "wire_bytes"),
            corruption=Site("fm", "corruption_detected", track, "src", "msg_id", "seq"),
            credit_return=Site("fm", "credit_return", track, "dest", "credits"))
        self.handlers = HandlerTable()
        # Sender side.
        self._credits: dict[int, int] = {}       # dest -> remaining credits
        self._next_msg_id: dict[int, int] = {}   # dest -> next message id
        # Receiver side.
        self._pending_returns: dict[int, int] = {}  # src -> unreturned credits
        #: Invoked (as a generator) when a send stalls on credits; upper
        #: layers (MPI) install their progress engine here — the paper's
        #: "interlayer scheduling" applied to deadlock avoidance.
        self.stall_hook: Optional[Callable[[], Generator]] = None
        #: Invoked ``(dest, waited_ns)`` — plain call, no simulated cost —
        #: when a credit-stall episode ends.  Receive-pacing layers (the
        #: dataflow engine) install an attributor here to charge the stall
        #: to whatever stage was sending; ``None`` costs nothing.
        self.on_credit_stall: Optional[Callable[[int, int], None]] = None
        # Statistics.
        self.stats_sent_messages = 0
        self.stats_sent_packets = 0
        self.stats_recv_packets = 0
        self.stats_recv_messages = 0
        self.stats_credit_stalls = 0
        self.stats_credit_stall_ns = 0
        self.stats_credit_packets = 0

    def register_handler(self, handler: Callable) -> int:
        """Register a message handler; returns the id to pass to sends."""
        return self.handlers.register(handler)

    # -- message ids ---------------------------------------------------------
    def alloc_msg_id(self, dest: int) -> int:
        next_id = self._next_msg_id.get(dest, 0)
        self._next_msg_id[dest] = next_id + 1
        return next_id

    # -- sender-side credits -------------------------------------------------
    def credits_available(self, dest: int) -> int:
        self._absorb_credit_returns(dest)
        return self._credits.setdefault(dest, self.params.credits_per_peer)

    def _absorb_credit_returns(self, dest: int) -> None:
        returned = self.nic.take_credits(dest)
        if returned:
            have = self._credits.setdefault(dest, self.params.credits_per_peer)
            new = have + returned
            if new > self.params.credits_per_peer:
                raise FmProtocolError(
                    f"credit overflow from peer {dest}: {new} > "
                    f"{self.params.credits_per_peer}"
                )
            self._credits[dest] = new

    def take_credit(self, dest: int) -> bool:
        """Spend a free credit toward ``dest`` now; ``False`` if none is."""
        if self.credits_available(dest):
            self._credits[dest] -= 1
            return True
        return False

    def acquire_credit(self, dest: int) -> Generator:
        """Spend one credit toward ``dest``, spinning until one is available."""
        obs = self.env.obs
        t0 = self.env.now
        stalled = False
        while self.credits_available(dest) == 0:
            if not stalled:
                stalled = True
                self.stats_credit_stalls += 1
            yield from self.cpu.poll()
            if self.params.credit_spin_ns:
                yield self.params.credit_spin_ns
            if self.stall_hook is not None:
                yield from self.stall_hook()
            # Simulated time, not a sum of nominal poll costs: time inside
            # the stall hook or inflated by a CpuSlow episode counts too.
            waited = self.env.now - t0
            if waited > self.params.stall_limit_ns:
                raise FmStalledError(
                    f"node {self.node_id} stalled {waited} ns waiting for "
                    f"credits to send to node {dest} (protocol deadlock?)"
                )
        self._credits[dest] -= 1
        if stalled:
            stall_ns = self.env.now - t0
            self.stats_credit_stall_ns += stall_ns
            if self.on_credit_stall is not None:
                self.on_credit_stall(dest, stall_ns)
            if obs is not None:
                obs.record(self._sites.credit_stall, t0, dest)
                obs.metrics.histogram("fm.credit_stall_ns").record(stall_ns)

    # -- idle waiting --------------------------------------------------------
    def idle_wait(self) -> Generator:
        """Sleep until the NIC's next receive-region deposit (capped).

        What every layer above FM does when a pass found nothing: an
        event-based wakeup rather than a fixed-backoff poll — the waiter
        registers for the next rx deposit and wakes the instant there is
        something to extract, instead of burning simulated time re-polling
        an empty region.  The capped timeout (:data:`IDLE_WAIT_CAP_NS`)
        covers the missed-wakeup case.

        The wait is one event (:meth:`Environment.first_of`): the process
        yields the wake-up itself and the cap timer wakes that same event,
        so a deposit resumes the waiter directly; a wake-up whose cap fired
        first stays in the NIC's list and is skipped, not fired, by the
        next flush.
        """
        yield self.env.first_of(self.nic.rx_wakeup(), IDLE_WAIT_CAP_NS)

    # -- packet construction and injection -----------------------------------------
    def make_header(self, dest: int, handler_id: int, msg_id: int, seq: int,
                    msg_bytes: int, flags: PacketFlags) -> PacketHeader:
        return PacketHeader(
            src=self.node_id, dest=dest, handler_id=handler_id,
            msg_id=msg_id, seq=seq, msg_bytes=msg_bytes, flags=flags,
        )

    def inject(self, packet: Packet, pio_bytes: Optional[int] = None) -> Generator:
        """PIO a packet into NIC SRAM and hand it to the firmware.

        ``pio_bytes`` overrides the bus transfer size for gather sends where
        the payload was already PIO'd piecewise (only the header remains).
        """
        nbytes = packet.wire_bytes if pio_bytes is None else pio_bytes
        self.fabric.stamp_route(packet)
        obs = self.env.obs
        t0 = self.env.now
        if obs is not None:
            # The single packet-injection chokepoint: every FM1/FM2 data or
            # control packet passes here, so stamping the sender's bound
            # trace context (if any) covers all send paths at once.
            ctx = obs.current()
            if ctx is not None:
                packet.trace = ctx
        yield from self.bus.pio_write(self.cpu, nbytes)
        yield from self.nic.submit(packet)
        self.stats_sent_packets += 1
        if obs is not None:
            obs.record(self._sites.inject, t0, packet.header.dest, nbytes,
                       packet.wire_bytes)

    # -- receiver-side credit returns ------------------------------------------------
    def raise_corruption(self, packet: Packet) -> None:
        """Report a packet that failed its CRC check: span, then raise
        (FM has no recovery, §3.1).  A plain method called only on the
        failure branch, so the per-packet path gains no generator frame."""
        header = packet.header
        obs = self.env.obs
        if obs is not None:
            obs.record(self._sites.corruption, self.env.now, header.src,
                       header.msg_id, header.seq)
        raise FmCorruptionError(
            f"node {self.node_id} received a corrupted packet from "
            f"{header.src}: FM relies on the network's (Myrinet's) "
            "effectively-zero error rate and has no recovery (§3.1)",
            node=self.node_id, src=header.src, msg_id=header.msg_id,
            seq=header.seq, handler_id=header.handler_id,
            time_ns=self.env.now, waypoints=tuple(packet.waypoints),
        )

    def note_packet_processed(self, src: int) -> Generator:
        """Count a processed data packet; return credits when a batch is due."""
        if src == self.node_id:
            return
        pending = self._pending_returns.get(src, 0) + 1
        self._pending_returns[src] = pending
        if pending >= self.params.credit_batch:
            yield from self.flush_credit_returns(src)

    def flush_credit_returns(self, src: int) -> Generator:
        """Send any pending credit return to ``src`` immediately."""
        pending = self._pending_returns.get(src, 0)
        if pending == 0:
            return
        self._pending_returns[src] = 0
        header = self.make_header(
            dest=src, handler_id=0, msg_id=0, seq=0, msg_bytes=0,
            flags=framed(PacketFlags.CONTROL, True, True),
        )
        header.credit_return = pending
        packet = Packet(header, b"")
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.per_packet()
        yield from self.inject(packet)
        self.stats_credit_packets += 1
        if obs is not None:
            obs.record(self._sites.credit_return, t0, src, pending)

    # -- introspection -----------------------------------------------------------
    def outstanding_credits(self, dest: int) -> int:
        """Credits currently spent toward ``dest`` (test invariant hook)."""
        return self.params.credits_per_peer - self.credits_available(dest)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} node={self.node_id} "
                f"sent={self.stats_sent_messages}msg/{self.stats_sent_packets}pkt "
                f"recv={self.stats_recv_messages}msg/{self.stats_recv_packets}pkt>")
