"""The fabric: instantiated links and switches wired to host NICs.

Construction is two-phase: build the fabric from a :class:`Topology`, then
``attach(host_id, nic)`` each host's NIC, then ``start()`` all component
processes.  The fabric also stamps source routes onto outgoing packets.

Partitioned parallel runs use this same class.  Given a
:class:`~repro.parallel.partition.PartitionPlan` and a partition index the
fabric builds only the switches, links and NIC attachments that partition
owns: the outbound half of each cut edge becomes a
:class:`~repro.hardware.link.BoundaryLink` filling :attr:`Fabric.outbox`,
the inbound half an injection target, and :meth:`Fabric.drain_outbox` /
:meth:`Fabric.inject` move packets across at window barriers.  Without a
plan the fabric owns everything and cuts nothing — a serial run is the
one-partition case, built by the same loops in the same order.  Routes
always come from the full topology, so they never depend on the plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hardware.link import BoundaryLink, Link
from repro.hardware.nic import Nic
from repro.hardware.packet import Packet
from repro.hardware.params import LinkParams, SwitchParams
from repro.hardware.switch import Switch
from repro.hardware.topology import (
    GraphNode,
    Topology,
    edge_id,
    host_node,
    switch_node,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.partition import BoundaryItem, PartitionPlan
    from repro.simkernel.env import Environment
    from repro.simkernel.store import Store


class Fabric:
    """Links + switches for a topology (or one partition's share of it),
    with NIC attachment points."""

    def __init__(self, env: "Environment", topology: Topology,
                 link_params: LinkParams,
                 switch_params: Optional[SwitchParams] = None,
                 trunk_params: Optional[LinkParams] = None,
                 plan: Optional["PartitionPlan"] = None, partition: int = 0):
        if plan is not None and not 0 <= partition < plan.n_partitions:
            raise ValueError(f"partition {partition} out of range "
                             f"[0, {plan.n_partitions})")
        self.env = env
        self.plan = plan
        self.partition = partition
        self.topology = topology
        self.link_params = link_params
        self.switch_params = switch_params or SwitchParams()
        #: Switch-to-switch trunks may carry their own parameters (longer
        #: cables between crossbars); host links always use ``link_params``.
        self.trunk_params = trunk_params or link_params
        #: Indexed by switch id; partition builds leave foreign entries None.
        self.switches: list[Optional[Switch]] = [None] * topology.n_switches
        self._nics: dict[int, Nic] = {}
        #: (src_node, dst_node) -> Link, for introspection/tests.
        self.links: dict[tuple[GraphNode, GraphNode], Link] = {}
        #: Packets captured by boundary links, in simulated-time order.
        self.outbox: list["BoundaryItem"] = []
        #: Inbound cut edges: edge id -> the owned switch input store that
        #: packets crossing that edge land in.
        self._inbound: dict[str, "Store"] = {}
        #: Injected packets that found that store full at arrival
        #: (backpressure cannot cross a cut retroactively; the counter
        #: keeps that approximation honest and observable).
        self.boundary_stalls = 0
        self._started = False
        self._build_switches()
        self._build_switch_links()
        # Route cache: (src_host, dst_host) -> port list.
        self._routes: dict[tuple[int, int], list[int]] = {}

    # -- ownership -----------------------------------------------------------
    def owns(self, node: GraphNode) -> bool:
        """Whether this build simulates ``node`` (everything, without a plan)."""
        return self.plan is None or self.plan.owner(node) == self.partition

    def owned_hosts(self) -> list[int]:
        """Host ids this build simulates, ascending."""
        return [i for i in range(self.topology.n_hosts)
                if self.owns(host_node(i))]

    # -- wiring --------------------------------------------------------------
    def _build_switches(self) -> None:
        for j in range(self.topology.n_switches):
            if self.owns(switch_node(j)):
                self.switches[j] = Switch(
                    self.env, self.topology.switch_degree(j),
                    self.switch_params, name=f"s{j}")

    def params_for(self, src: GraphNode, dst: GraphNode) -> LinkParams:
        """Link parameters for one directed edge (trunks vs host links)."""
        if src[0] == "s" and dst[0] == "s":
            return self.trunk_params
        return self.link_params

    def _make_link(self, src: GraphNode, dst: GraphNode) -> Link:
        """The link out of owned node ``src``: a boundary link when ``dst``
        belongs to another partition."""
        eid = edge_id(src, dst)
        params, name = self.params_for(src, dst), f"link:{eid}"
        if self.owns(dst):
            link = Link(self.env, params, name=name)
        else:
            link = BoundaryLink(self.env, params, eid, self.outbox, name=name)
        self.links[(src, dst)] = link
        return link

    def _build_switch_links(self) -> None:
        """Create switch-to-switch links now; host links wait for attach().

        Each directed trunk is built by the side owning its source; the
        side owning only its far end records where arrivals are injected.
        """
        topo = self.topology
        for j in range(topo.n_switches):
            src = switch_node(j)
            for port, neighbor in enumerate(topo.switch_neighbors(j)):
                kind, idx = neighbor
                if kind != "s":
                    continue
                peer_port = topo.switch_port_of(idx, src)
                if self.owns(src):
                    link = self._make_link(src, neighbor)
                    self.switches[j].connect_out(port, link)
                    if link.has_target:
                        link.connect(self.switches[idx].in_ports[peer_port])
                elif self.owns(neighbor):
                    self._inbound[edge_id(src, neighbor)] = (
                        self.switches[idx].in_ports[peer_port])

    def attach(self, host_id: int, nic: Nic) -> None:
        """Wire a host NIC to its switch (both directions)."""
        if host_id in self._nics:
            raise RuntimeError(f"host {host_id} already attached")
        topo = self.topology
        hnode = host_node(host_id)
        if not self.owns(hnode):
            raise ValueError(
                f"host {host_id} is not in partition {self.partition}")
        (neighbor,) = list(topo.graph.neighbors(hnode))
        kind, j = neighbor
        if kind != "s":
            raise ValueError(f"host {host_id} is not connected to a switch")
        sw = self.switches[j]
        port = topo.switch_port_of(j, hnode)
        # Host -> switch.
        up = self._make_link(hnode, neighbor)
        nic.connect_tx(up)
        up.connect(sw.in_ports[port])
        # Switch -> host.
        down = self._make_link(neighbor, hnode)
        sw.connect_out(port, down)
        down.connect(nic.rx_sram)
        # The RDMA/collective firmware originates packets itself (read
        # responses, barrier/broadcast rounds) and needs routes stamped
        # without a host-side FM endpoint in the loop.
        nic.attach_fabric(self)
        self._nics[host_id] = nic

    def start(self) -> None:
        """Start every link, switch and NIC process. Call exactly once."""
        if self._started:
            raise RuntimeError("fabric started twice")
        missing = set(self.owned_hosts()) - set(self._nics)
        if missing:
            raise RuntimeError(f"hosts not attached before start(): {sorted(missing)}")
        self._started = True
        for link in self.links.values():
            link.start()
        for sw in self.switches:
            if sw is not None:
                sw.start()
        for nic in self._nics.values():
            nic.start()

    # -- window exchange (partitioned runs) ------------------------------------
    def drain_outbox(self, window_end_ns: int) -> list["BoundaryItem"]:
        """Take everything captured this window (arrivals all lie beyond
        ``window_end_ns`` — the lookahead invariant, asserted here)."""
        items, self.outbox[:] = list(self.outbox), []
        for arrival_ns, _capture_ns, eid, _packet in items:
            if arrival_ns < window_end_ns:
                raise AssertionError(
                    f"lookahead violation: packet on {eid} arrives at "
                    f"{arrival_ns} < window end {window_end_ns}")
        return items

    def inject(self, items: list["BoundaryItem"]) -> None:
        """Schedule delivery of inbound boundary packets.

        ``items`` must be sorted by ``(arrival_ns, capture_ns, edge_id)``
        — the coordinator guarantees it — so process creation order (and
        with it every event tiebreak) is identical however many
        partitions produced the packets.
        """
        for arrival_ns, _capture_ns, eid, packet in items:
            self.env.process(
                self._deliver_inbound(arrival_ns, self._inbound[eid], packet),
                name=f"inject:{eid}")

    def _deliver_inbound(self, arrival_ns: int, target: "Store",
                         packet: Packet):
        if arrival_ns > self.env.now:
            yield self.env.timeout(arrival_ns - self.env.now)
        if target.is_full:
            self.boundary_stalls += 1
        yield target.put(packet)

    # -- routing --------------------------------------------------------------
    def route_for(self, src_host: int, dst_host: int) -> list[int]:
        key = (src_host, dst_host)
        if key not in self._routes:
            self._routes[key] = self.topology.source_route(src_host, dst_host)
        return list(self._routes[key])  # copy: switches consume the route

    def stamp_route(self, packet: Packet) -> Packet:
        packet.route = self.route_for(packet.header.src, packet.header.dest)
        return packet

    def nic(self, host_id: int) -> Nic:
        return self._nics[host_id]

    def __repr__(self) -> str:
        return (f"<Fabric hosts={len(self._nics)}/{self.topology.n_hosts} "
                f"switches={len(self.switches)} links={len(self.links)}>")
