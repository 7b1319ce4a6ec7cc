"""Topology partitioning and boundary links for parallel simulation.

A :class:`PartitionPlan` splits a topology's switches into contiguous
blocks, one per partition; every host belongs to its switch's partition.
Links whose endpoints land in different partitions are *cut edges*: the
owning side replaces its directed half with a :class:`BoundaryLink` that
captures serialised packets (tagged with their arrival time at the far
side) into an outbox instead of delivering them, and the receiving side
re-injects them between windows.

The conservative-lookahead rule lives here too: a packet finishing
serialisation at local time ``t`` arrives at ``t + propagation_ns``, so
the minimum propagation delay over all cut edges bounds how far any
partition may run ahead of the others — that minimum is the window width.
Capture happens at serialisation end (arrival still in the future by at
least one full window), which is exactly what makes the window exchange
sufficient: every packet produced during window ``k`` arrives at or after
the start of window ``k+1``, before the destination partition has
simulated that region.

Determinism: routes are computed on the *full* topology in every worker
(identical source routes to a serial run); inbound packets are injected
in globally sorted ``(arrival_ns, edge_id)`` order; and per-edge delivery
is FIFO.  Partition counts therefore do not change simulated results —
the invariance the partition tests pin byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.hardware.fabric import Fabric
from repro.hardware.link import Link
from repro.hardware.nic import Nic
from repro.hardware.packet import Packet
from repro.hardware.params import LinkParams, SwitchParams
from repro.hardware.switch import Switch
from repro.hardware.topology import GraphNode, Topology, host_node, switch_node

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment
    from repro.simkernel.store import Store

#: An outbox entry: (arrival time at the far side, capture time at
#: serialisation end, edge id, the packet).  Capture time is the tiebreak
#: for same-nanosecond arrivals: serially, two deliveries landing at the
#: same instant fire in the order their propagation timers were scheduled
#: — i.e. serialisation-end order — so sorting on it reproduces the
#: serial event order across partitions.
BoundaryItem = tuple[int, int, str, Packet]


def edge_id(src: GraphNode, dst: GraphNode) -> str:
    """Stable textual id of one directed edge (cross-process routing key)."""
    return f"{src[0]}{src[1]}->{dst[0]}{dst[1]}"


@dataclass(frozen=True)
class PartitionPlan:
    """Who owns what, and how wide the lookahead window is.

    Switch ``j`` belongs to partition ``j * n_partitions // n_switches``
    (contiguous blocks; ``n_switches`` must divide evenly), hosts follow
    their switch, and the window width is the minimum propagation delay
    over every cut edge.  The plan is pure data — both the coordinator
    and each worker derive identical plans from the same inputs.
    """

    topology: Topology
    n_partitions: int
    link_params: LinkParams
    trunk_params: LinkParams
    #: Directed cut edges: edge_id -> (src node, dst node).
    cut_edges: dict[str, tuple[GraphNode, GraphNode]] = field(init=False)
    lookahead_ns: int = field(init=False)

    def __post_init__(self) -> None:
        topo, n_parts = self.topology, self.n_partitions
        if n_parts < 1:
            raise ValueError(
                f"n_partitions must be positive, got {n_parts}")
        if topo.n_switches % n_parts:
            raise ValueError(
                f"{topo.n_switches} switches do not split evenly over "
                f"{n_parts} partitions")
        cuts: dict[str, tuple[GraphNode, GraphNode]] = {}
        lookahead: Optional[int] = None
        for j in range(topo.n_switches):
            for neighbor in topo.switch_neighbors(j):
                src = switch_node(j)
                if self.owner(src) == self.owner(neighbor):
                    continue
                cuts[edge_id(src, neighbor)] = (src, neighbor)
                prop = self.edge_params(src, neighbor).propagation_ns
                if lookahead is None or prop < lookahead:
                    lookahead = prop
        if n_parts > 1 and (lookahead is None or lookahead < 2):
            raise ValueError(
                "partitioned runs need every cross-partition link to have "
                f"propagation_ns >= 2 (lookahead window), got {lookahead}")
        object.__setattr__(self, "cut_edges", cuts)
        object.__setattr__(self, "lookahead_ns", lookahead or 0)

    # -- ownership -----------------------------------------------------------
    def switch_partition(self, j: int) -> int:
        return j * self.n_partitions // self.topology.n_switches

    def host_partition(self, i: int) -> int:
        (neighbor,) = list(self.topology.graph.neighbors(host_node(i)))
        return self.switch_partition(neighbor[1])

    def owner(self, node: GraphNode) -> int:
        kind, idx = node
        return (self.switch_partition(idx) if kind == "s"
                else self.host_partition(idx))

    def hosts_of(self, partition: int) -> list[int]:
        return [i for i in range(self.topology.n_hosts)
                if self.host_partition(i) == partition]

    def edge_params(self, src: GraphNode, dst: GraphNode) -> LinkParams:
        if src[0] == "s" and dst[0] == "s":
            return self.trunk_params
        return self.link_params

    def dest_partition(self, eid: str) -> int:
        """The partition an outbox item addressed to ``eid`` belongs to."""
        return self.owner(self.cut_edges[eid][1])

    def __repr__(self) -> str:
        return (f"<PartitionPlan parts={self.n_partitions} "
                f"cuts={len(self.cut_edges)} lookahead={self.lookahead_ns}ns>")


class BoundaryLink(Link):
    """The owned half of a cut edge: serialise locally, capture the packet.

    Serialisation (wire time, fault model, flight-window backpressure) is
    simulated exactly as on a normal link, so upstream timing is
    unchanged.  The differences sit past the wire: the packet is captured
    into ``outbox`` the instant serialisation ends — tagged with its
    arrival time ``now + propagation_ns``, which the lookahead rule
    guarantees lies at least one window in the future — and the deliverer
    degenerates to a flight-slot drainer that frees each slot at that
    packet's arrival time, preserving the in-flight window's
    backpressure without a local target.
    """

    def __init__(self, env: "Environment", params: LinkParams,
                 eid: str, outbox: list[BoundaryItem], name: str = "blink"):
        super().__init__(env, params, name=name)
        self.edge_id = eid
        self.outbox = outbox

    def start(self) -> None:
        # No connect(): the far side lives in another process.
        if self._started:
            raise RuntimeError(f"link {self.name!r} started twice")
        self._started = True
        self.env.process(self._serialise(), name=f"{self.name}.serialise")
        self.env.process(self._deliver(), name=f"{self.name}.deliver")

    def _serialise(self):
        while True:
            packet: Packet = yield self.ingress.get()
            yield self.env.timeout(self.wire_time(packet))
            packet.stamp(self._wire_label, self.env.now)
            dropped = self._apply_faults(packet)
            self.packets += 1
            self.bytes += packet.wire_bytes
            if dropped:
                continue
            ready_at = self.env.now + self.params.propagation_ns
            self.outbox.append((ready_at, self.env.now, self.edge_id, packet))
            yield self._flight.put((packet, ready_at))

    def _deliver(self):
        while True:
            _packet, ready_at = yield self._flight.get()
            if ready_at > self.env.now:
                yield self.env.timeout(ready_at - self.env.now)


class PartitionFabric(Fabric):
    """One partition's share of the fabric.

    Builds only the switches, links and NIC attachments this partition
    owns; each outbound half of a cut edge becomes a
    :class:`BoundaryLink` and each inbound half an injection target
    (the far switch's input port, filled by :meth:`inject` between
    windows).  Routing uses the full topology, so source routes are
    identical to a serial build.
    """

    def __init__(self, env: "Environment", plan: PartitionPlan,
                 partition: int,
                 switch_params: Optional[SwitchParams] = None):
        self.plan = plan
        self.partition = partition
        #: Captured outbound packets, appended in simulated-time order.
        self.outbox: list[BoundaryItem] = []
        #: Inbound cut edges: edge_id -> the owned switch input store that
        #: packets crossing that edge land in.
        self._inbound: dict[str, "Store"] = {}
        #: Packets that found the target input buffer full at arrival
        #: (backpressure cannot cross a cut retroactively; the counter
        #: keeps that approximation honest and observable).
        self.boundary_stalls = 0
        super().__init__(env, plan.topology, plan.link_params,
                         switch_params, trunk_params=plan.trunk_params)

    # -- ownership-aware wiring ----------------------------------------------
    def owns(self, node: GraphNode) -> bool:
        return self.plan.owner(node) == self.partition

    def _build_switches(self) -> None:
        for j in range(self.topology.n_switches):
            if self.owns(switch_node(j)):
                self.switches[j] = Switch(
                    self.env, self.topology.switch_degree(j),
                    self.switch_params, name=f"s{j}")

    def _build_switch_links(self) -> None:
        topo = self.topology
        for j in range(topo.n_switches):
            src = switch_node(j)
            for port, neighbor in enumerate(topo.switch_neighbors(j)):
                if neighbor[0] != "s":
                    continue
                peer_port = topo.switch_port_of(neighbor[1], src)
                if self.owns(src):
                    if self.owns(neighbor):
                        link = self._make_link(src, neighbor)
                        self.switches[j].connect_out(port, link)
                        link.connect(self.switches[neighbor[1]]
                                     .in_ports[peer_port])
                    else:
                        eid = edge_id(src, neighbor)
                        blink = BoundaryLink(
                            self.env, self.params_for(src, neighbor), eid,
                            self.outbox, name=f"link:{eid}")
                        self.links[(src, neighbor)] = blink
                        self.switches[j].connect_out(port, blink)
                elif self.owns(neighbor):
                    # Inbound half of a cut edge: remember where arrivals
                    # land (the owned switch's input port facing the cut).
                    eid = edge_id(src, neighbor)
                    self._inbound[eid] = (
                        self.switches[neighbor[1]].in_ports[peer_port])

    def attach(self, host_id: int, nic: Nic) -> None:
        if not self.owns(host_node(host_id)):
            raise ValueError(
                f"host {host_id} is not in partition {self.partition}")
        super().attach(host_id, nic)

    def start(self) -> None:
        if self._started:
            raise RuntimeError("fabric started twice")
        missing = set(self.plan.hosts_of(self.partition)) - set(self._nics)
        if missing:
            raise RuntimeError(
                f"hosts not attached before start(): {sorted(missing)}")
        self._started = True
        for link in self.links.values():
            link.start()
        for sw in self.switches:
            if sw is not None:
                sw.start()
        for nic in self._nics.values():
            nic.start()

    # -- window exchange -------------------------------------------------------
    def drain_outbox(self, window_end_ns: int) -> list[BoundaryItem]:
        """Take everything captured this window (arrivals all lie beyond
        ``window_end_ns`` — the lookahead invariant, asserted here)."""
        items, self.outbox[:] = list(self.outbox), []
        for arrival_ns, _capture_ns, eid, _packet in items:
            if arrival_ns < window_end_ns:
                raise AssertionError(
                    f"lookahead violation: packet on {eid} arrives at "
                    f"{arrival_ns} < window end {window_end_ns}")
        return items

    def inject(self, items: list[BoundaryItem]) -> None:
        """Schedule delivery of inbound boundary packets.

        ``items`` must be sorted by ``(arrival_ns, capture_ns, edge_id)``
        — the coordinator guarantees it — so process creation order (and
        with it every event tiebreak) is identical however many
        partitions produced the packets.
        """
        for arrival_ns, _capture_ns, eid, packet in items:
            target = self._inbound[eid]
            self.env.process(self._deliver_inbound(arrival_ns, target, packet),
                             name=f"inject:{eid}")

    def _deliver_inbound(self, arrival_ns: int, target: "Store",
                         packet: Packet):
        if arrival_ns > self.env.now:
            yield self.env.timeout(arrival_ns - self.env.now)
        if target.is_full:
            self.boundary_stalls += 1
        yield target.put(packet)

    def __repr__(self) -> str:
        return (f"<PartitionFabric p{self.partition}/{self.plan.n_partitions} "
                f"hosts={len(self._nics)} cuts_out="
                f"{sum(1 for l in self.links.values() if isinstance(l, BoundaryLink))}>")
