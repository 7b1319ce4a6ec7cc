"""The paper's two-node microbenchmarks as a workload kind (``kind="micro"``):
the drivers behind the figures run through ``execute_scenario``, so a figure
point takes an observer or a fault plan like any preset.  ``n_requests`` is
the stream length, ``iterations`` the ping-pong round trips; the report's
``results`` is the driver's result dataclass.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.bench.journey import packet_journey
from repro.bench.microbench import PingPongResult, fm_pingpong, fm_stream
from repro.bench.mpibench import mpi_pingpong_latency_us, mpi_stream
from repro.obs.metrics import RunStats
from repro.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.simkernel.env import Environment

#: pattern -> its driver, called as ``driver(scenario, cluster)``.
PATTERNS = {
    "fm-stream": lambda s, c: fm_stream(c, s.msg_bytes, s.n_requests),
    "fm-pingpong": lambda s, c: fm_pingpong(c, s.msg_bytes, s.iterations),
    "mpi-stream": lambda s, c: mpi_stream(c, s.msg_bytes, s.n_requests),
    "mpi-pingpong": lambda s, c: PingPongResult(
        mpi_pingpong_latency_us(c, s.msg_bytes, s.iterations), s.iterations),
    "journey": lambda s, c: packet_journey(c, s.msg_bytes),
}


class MicroStats(RunStats):
    """What one microbenchmark measured: its driver's ``result``."""

    result = None

    def report(self) -> dict:
        return asdict(self.result)


@dataclass(frozen=True)
class MicroScenario(Scenario):
    """``kind="micro"`` — one of :data:`PATTERNS` from node 0 to node 1
    with ``msg_bytes`` messages.  The drivers run to completion, so
    ``until_ns`` stays unset."""

    kind: str = "micro"
    n_nodes: int = 2
    pattern: str = "fm-stream"
    msg_bytes: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        self._choose(n_nodes=(2,), pattern=tuple(PATTERNS), until_ns=(None,))
        # Every pattern completes at 0 bytes (a stream of them reads 0 MB/s).
        self._at_least(n_requests=1, iterations=1, msg_bytes=0)

    def build_stats(self, env: "Environment") -> MicroStats:
        return MicroStats(env, name=f"micro.{self.name}")

    def run(self, cluster: "Cluster", stats: MicroStats) -> dict:
        """Run the pattern's driver (no section beyond ``results``)."""
        stats.result = PATTERNS[self.pattern](self, cluster)
        return {}
