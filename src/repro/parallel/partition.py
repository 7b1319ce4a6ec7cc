"""The partition plan: who simulates what, and how far ahead is safe.

A :class:`PartitionPlan` splits a topology's switches into contiguous
blocks, one per partition; every host belongs to its switch's partition.
Links whose endpoints land in different partitions are *cut edges*.  The
plan is pure data: :class:`~repro.hardware.fabric.Fabric` and
:class:`~repro.cluster.cluster.Cluster` take one (plus a partition index)
and build that partition's share — the owning side's half of a cut edge
becomes a :class:`~repro.hardware.link.BoundaryLink` that captures
serialised packets, tagged with their arrival time at the far side, and
the receiving side re-injects them between windows.

The conservative-lookahead rule lives here: a packet finishing
serialisation at local time ``t`` arrives at ``t + propagation_ns``, so
the propagation delay of the cut edges (all trunks) bounds how far any
partition may run ahead of the others — that delay is the window width.
Capture happens at serialisation end (arrival still in the future by at
least one full window), which is exactly what makes the window exchange
sufficient: every packet produced during window ``k`` arrives at or after
the start of window ``k+1``, before the destination partition has
simulated that region.

Determinism: routes are computed on the *full* topology in every worker
(identical source routes to a serial run); inbound packets are injected
in globally sorted ``(arrival_ns, capture_ns, edge_id)`` order; and
per-edge delivery is FIFO.  Partition counts therefore do not change
simulated results — the invariance the partition tests pin byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hardware.params import LinkParams
from repro.hardware.topology import (
    GraphNode,
    Topology,
    edge_id,
    host_node,
    switch_node,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.packet import Packet

#: An outbox entry: (arrival time at the far side, capture time at
#: serialisation end, edge id, the packet).  Capture time is the tiebreak
#: for same-nanosecond arrivals: serially, two deliveries landing at the
#: same instant fire in the order their propagation timers were scheduled
#: — i.e. serialisation-end order — so sorting on it reproduces the
#: serial event order across partitions.
BoundaryItem = tuple[int, int, str, "Packet"]


@dataclass(frozen=True)
class PartitionPlan:
    """Who owns what, and how wide the lookahead window is.

    Switch ``j`` belongs to partition ``j * n_partitions // n_switches``
    (contiguous blocks; ``n_switches`` must divide evenly), hosts follow
    their switch (so every cut edge is a trunk), and the window width is
    the trunks' propagation delay.  The plan is pure data — both the
    coordinator and each worker derive identical plans from the same inputs.
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
        # Hosts follow their switch, so only trunks are ever cut.
        cuts = {edge_id(switch_node(j), neighbor): (switch_node(j), neighbor)
                for j in range(topo.n_switches)
                for neighbor in topo.switch_neighbors(j)
                if self.owner(neighbor) != self.switch_partition(j)}
        lookahead = self.trunk_params.propagation_ns if cuts else 0
        if n_parts > 1 and lookahead < 2:
            raise ValueError(
                "partitioned runs need every cross-partition link to have "
                f"propagation_ns >= 2 (lookahead window), got {lookahead}")
        object.__setattr__(self, "cut_edges", cuts)
        object.__setattr__(self, "lookahead_ns", lookahead)

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

    def dest_partition(self, eid: str) -> int:
        """The partition an outbox item addressed to ``eid`` belongs to."""
        return self.owner(self.cut_edges[eid][1])

    def __repr__(self) -> str:
        return (f"<PartitionPlan parts={self.n_partitions} "
                f"cuts={len(self.cut_edges)} lookahead={self.lookahead_ns}ns>")
