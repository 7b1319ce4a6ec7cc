"""Source-routed crossbar switches.

Each input port has a bounded buffer and its own forwarding process: pop a
packet, decode the next hop from the packet's source route (Myrinet style:
the route is a list of output-port indices and each switch consumes the
head), then enqueue on the output link.  Output contention is resolved at
the output link's bounded ingress store; a full downstream path back-
pressures into the input buffer and, eventually, the upstream link.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.simkernel.store import EMPTY, Store

from repro.hardware.link import Link
from repro.hardware.packet import FORWARD_HOP, Packet
from repro.hardware.params import SwitchParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class RoutingError(Exception):
    """A packet arrived with an empty or invalid source route."""


class Switch:
    """An ``n_ports``-way crossbar with per-input forwarding processes."""

    def __init__(self, env: "Environment", n_ports: int, params: SwitchParams,
                 name: str = "switch"):
        if n_ports < 1:
            raise ValueError(f"switch needs at least one port, got {n_ports}")
        self.env = env
        self.params = params
        self.name = name
        self._forward_label = f"{name}.forward"
        self._track = f"fabric/{name}"
        self.n_ports = n_ports
        self.in_ports: list[Store] = [
            Store(env, capacity=params.port_buffer_slots, name=f"{name}.in{p}")
            for p in range(n_ports)
        ]
        self.out_links: list[Optional[Link]] = [None] * n_ports
        self._started = False
        self.forwarded: int = 0

    def connect_out(self, port: int, link: Link) -> None:
        if not 0 <= port < self.n_ports:
            raise ValueError(f"port {port} out of range for {self.n_ports}-port switch")
        if self.out_links[port] is not None:
            raise RuntimeError(f"output port {port} of {self.name!r} already connected")
        self.out_links[port] = link

    def start(self) -> None:
        if self._started:
            raise RuntimeError(f"switch {self.name!r} started twice")
        self._started = True
        for port in range(self.n_ports):
            self.env.process(self._forward(port), name=f"{self.name}.fwd{port}")

    def _forward(self, port: int):
        in_store = self.in_ports[port]
        while True:
            packet: Packet = in_store.get_now()
            if packet is EMPTY:
                packet = yield in_store.get()
            t0 = self.env.now
            yield self.params.routing_ns
            if not packet.route:
                raise RoutingError(
                    f"packet {packet!r} reached {self.name!r} with an empty route"
                )
            out_port = packet.route.pop(0)
            if not 0 <= out_port < self.n_ports:
                raise RoutingError(
                    f"packet {packet!r} routed to invalid port {out_port} "
                    f"on {self.n_ports}-port switch {self.name!r}"
                )
            link = self.out_links[out_port]
            if link is None:
                raise RoutingError(
                    f"packet {packet!r} routed to unconnected port {out_port} "
                    f"of {self.name!r}"
                )
            self.forwarded += 1
            packet.stamp(self._forward_label, self.env.now, FORWARD_HOP, t0,
                         self._track, port, out_port)
            if not link.ingress.put_now(packet):
                yield link.ingress.put(packet)

    def __repr__(self) -> str:
        return f"<Switch {self.name!r} ports={self.n_ports} forwarded={self.forwarded}>"
