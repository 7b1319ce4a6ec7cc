"""Per-packet journey attribution: where a message's latency goes.

Every packet records ``(location, time)`` waypoints as it crosses the
simulated hardware (NIC submit/inject, wire transits, switch forwarding,
receive DMA); this module sends one message between idle nodes, collects
the first packet's waypoints bracketed by the software entry/handler
marks, and renders the stage-by-stage latency — the simulated counterpart
of the paper's overhead-breakdown discussions ("where do the 11 µs go?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.bench.microbench import (extract_until, fm_send,
                                    register_handler)
from repro.cluster.cluster import Cluster
from repro.hardware.params import MachineParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.observer import Observer


@dataclass
class Journey:
    """One packet's timeline: ordered (stage, absolute ns) marks."""

    marks: list[tuple[str, int]]

    def __post_init__(self) -> None:
        if len(self.marks) < 2:
            raise ValueError("a journey needs at least two marks")
        times = [t for _n, t in self.marks]
        if times != sorted(times):
            raise ValueError(f"marks out of order: {self.marks}")

    @property
    def total_ns(self) -> int:
        return self.marks[-1][1] - self.marks[0][1]

    def stages(self) -> list[tuple[str, int]]:
        """(stage name, duration ns) between consecutive marks."""
        return [
            (f"{a_name} -> {b_name}", b_time - a_time)
            for (a_name, a_time), (b_name, b_time)
            in zip(self.marks, self.marks[1:])
        ]

    def longest_stage(self) -> str:
        return max(self.stages(), key=lambda item: item[1])[0]

    def render(self) -> str:
        width = max(len(name) for name, _d in self.stages()) + 2
        lines = [f"{'stage':<{width}}{'ns':>10}{'us':>9}"]
        for name, duration in self.stages():
            lines.append(f"{name:<{width}}{duration:>10}{duration / 1000:>9.2f}")
        lines.append(f"{'TOTAL':<{width}}{self.total_ns:>10}"
                     f"{self.total_ns / 1000:>9.2f}")
        return "\n".join(lines)


def packet_journey(machine: MachineParams, fm_version: int,
                   msg_bytes: int = 16) -> Journey:
    """One-way journey of a single short message, waypoint by waypoint."""
    journey, _cluster = packet_journey_detail(machine, fm_version, msg_bytes)
    return journey


def packet_journey_detail(machine: MachineParams, fm_version: int,
                          msg_bytes: int = 16,
                          observer: Optional["Observer"] = None,
                          ) -> tuple[Journey, Cluster]:
    """Like :func:`packet_journey`, returning the cluster too.

    Pass an :class:`~repro.obs.observer.Observer` to run the journey with
    full observability on (spans + metrics); ``repro.obs.report`` uses this
    to cross-check the aggregate per-stage breakdown against the classic
    one-packet attribution.
    """
    cluster = Cluster(2, machine=machine, fm_version=fm_version)
    if observer is not None:
        cluster.observe(observer)
    captured: list = []
    done: list[int] = []

    hid = register_handler(cluster, lambda fm: done.append(fm.env.now))

    # Capture submitted packets by wrapping the sender NIC's submit.
    nic = cluster.node(0).nic
    original_submit = nic.submit
    nic.submit = lambda packet: (captured.append(packet), original_submit(packet))[1]

    start: list[int] = []

    def sender(node):
        buf = node.buffer(msg_bytes)
        start.append(node.env.now)
        yield from fm_send(node.fm, 1, hid, buf, msg_bytes)

    def receiver(node):
        return extract_until(node, lambda: done)

    cluster.run([sender, receiver])
    first_packet = captured[0]
    marks = [("api_enter", start[0])]
    marks += [waypoint[:2] for waypoint in first_packet.waypoints]
    marks.append(("handler_done", done[0]))
    return Journey(marks=marks), cluster
