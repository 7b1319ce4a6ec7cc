"""The fabric: instantiated links and switches wired to host NICs.

Construction is two-phase: build the fabric from a :class:`Topology`, then
``attach(host_id, nic)`` each host's NIC, then ``start()`` all component
processes.  The fabric also stamps source routes onto outgoing packets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hardware.link import Link
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
    from repro.simkernel.env import Environment


class Fabric:
    """Links + switches for a topology, with NIC attachment points."""

    def __init__(self, env: "Environment", topology: Topology,
                 link_params: LinkParams,
                 switch_params: Optional[SwitchParams] = None,
                 trunk_params: Optional[LinkParams] = None):
        self.env = env
        self.topology = topology
        self.link_params = link_params
        self.switch_params = switch_params or SwitchParams()
        #: Switch-to-switch trunks may carry their own parameters (longer
        #: cables between crossbars); host links always use ``link_params``.
        self.trunk_params = trunk_params or link_params
        #: Indexed by switch id.
        self.switches: list[Switch] = [
            Switch(env, topology.switch_degree(j), self.switch_params,
                   name=f"s{j}")
            for j in range(topology.n_switches)]
        self._nics: dict[int, Nic] = {}
        #: (src_node, dst_node) -> Link, for introspection/tests.
        self.links: dict[tuple[GraphNode, GraphNode], Link] = {}
        self._started = False
        self._build_switch_links()
        # Route cache: (src_host, dst_host) -> port list.
        self._routes: dict[tuple[int, int], list[int]] = {}

    # -- wiring --------------------------------------------------------------
    def params_for(self, src: GraphNode, dst: GraphNode) -> LinkParams:
        """Link parameters for one directed edge (trunks vs host links)."""
        if src[0] == "s" and dst[0] == "s":
            return self.trunk_params
        return self.link_params

    def _make_link(self, src: GraphNode, dst: GraphNode) -> Link:
        link = Link(self.env, self.params_for(src, dst),
                    name=f"link:{edge_id(src, dst)}")
        self.links[(src, dst)] = link
        return link

    def _build_switch_links(self) -> None:
        """Create switch-to-switch links now; host links wait for attach()."""
        topo = self.topology
        for j in range(topo.n_switches):
            src = switch_node(j)
            for port, neighbor in enumerate(topo.switch_neighbors(j)):
                kind, idx = neighbor
                if kind != "s":
                    continue
                link = self._make_link(src, neighbor)
                self.switches[j].connect_out(port, link)
                peer_port = topo.switch_port_of(idx, src)
                link.connect(self.switches[idx].in_ports[peer_port])

    def attach(self, host_id: int, nic: Nic) -> None:
        """Wire a host NIC to its switch (both directions)."""
        if host_id in self._nics:
            raise RuntimeError(f"host {host_id} already attached")
        topo = self.topology
        hnode = host_node(host_id)
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
        missing = set(range(self.topology.n_hosts)) - set(self._nics)
        if missing:
            raise RuntimeError(f"hosts not attached before start(): {sorted(missing)}")
        self._started = True
        for link in self.links.values():
            link.start()
        for sw in self.switches:
            sw.start()
        for nic in self._nics.values():
            nic.start()

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
