"""Component-utilisation analysis: where the time goes during a stream.

The paper's overhead arguments are about *which component saturates*: FM
1.x is I/O-bus-bound on the Sparc, FM 2.x is send-CPU/PIO-bound on the
PPro, and MPI layers shift load onto host memcpy.  This module measures
busy fractions of every component over a streaming run, turning those
claims into numbers.  A stream is a ``kind="micro"`` scenario
(``fm-stream`` or ``mpi-stream``) run through ``execute_scenario``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.workloads.runner import execute_scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.bench.micro import MicroScenario
    from repro.cluster.cluster import Cluster


@dataclass
class Utilization:
    """Busy fractions (0..1) of the major components during a run."""

    elapsed_ns: int
    sender_cpu: float
    sender_bus: float
    receiver_cpu: float
    receiver_bus: float
    sender_copy_bytes: int
    receiver_copy_bytes: int

    @property
    def bottleneck(self) -> str:
        """Name of the busiest host-side component."""
        return max(("sender_cpu", "sender_bus", "receiver_cpu",
                    "receiver_bus"), key=lambda name: getattr(self, name))

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("sender CPU busy", f"{100 * self.sender_cpu:.0f}%"),
            ("sender bus busy", f"{100 * self.sender_bus:.0f}%"),
            ("receiver CPU busy", f"{100 * self.receiver_cpu:.0f}%"),
            ("receiver bus busy", f"{100 * self.receiver_bus:.0f}%"),
            ("copy bytes (send/recv)",
             f"{self.sender_copy_bytes}/{self.receiver_copy_bytes}"),
            ("bottleneck", self.bottleneck),
        ]


def _snapshot(cluster: Cluster, elapsed_ns: int) -> Utilization:
    sender, receiver = cluster.node(0), cluster.node(1)
    if elapsed_ns <= 0:
        raise ValueError("run produced non-positive elapsed time")
    return Utilization(
        elapsed_ns=elapsed_ns,
        sender_cpu=min(1.0, sender.cpu.busy_ns / elapsed_ns),
        sender_bus=min(1.0, sender.bus.busy_ns / elapsed_ns),
        receiver_cpu=min(1.0, receiver.cpu.busy_ns / elapsed_ns),
        receiver_bus=min(1.0, receiver.bus.busy_ns / elapsed_ns),
        sender_copy_bytes=sender.cpu.meter.bytes,
        receiver_copy_bytes=receiver.cpu.meter.bytes,
    )


def stream_utilization(scenario: MicroScenario) -> Utilization:
    """Utilisation during one unidirectional stream scenario."""
    outcome = execute_scenario(scenario)
    return _snapshot(outcome.cluster, outcome.stats.result.elapsed_ns)
