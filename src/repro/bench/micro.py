"""Every microbenchmark as a workload kind (``kind="micro"``): the drivers
behind the paper's figures, the extension studies and the RDMA transport
smoke (``rdma-pingpong``) run through ``execute_scenario``, so any point
takes an observer or a fault plan like any preset.  ``n_requests`` is the stream length, ``iterations`` the
ping-pong round trips or collective rounds; the report's ``results`` is the
driver's result dataclass.  A pattern runs from node 0 to node 1, or on
every node of ``n_nodes`` if it is one of :data:`GROUP`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.bench.breakdown import free_bus, lean_stream
from repro.bench.journey import packet_journey
from repro.bench.microbench import (PingPongResult, fm_pingpong, fm_stream,
                                    pair_streams)
from repro.bench.mpibench import (mpi_alltoall, mpi_pingpong_latency_us,
                                  mpi_stream)
from repro.bench.rdma_bench import (COLLECTIVES, collective_latency,
                                    rdma_pingpong, rdma_put_stream)
from repro.hardware.topology import switch_chain
from repro.obs.metrics import RunStats
from repro.scenario import Scenario
from repro.upper.mpi.world import binding_named

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.simkernel.env import Environment

#: pattern -> its driver, called as ``driver(scenario, cluster)``.
PATTERNS = {
    "fm-stream": lambda s, c: fm_stream(c, s.msg_bytes, s.n_requests),
    "fm-pingpong": lambda s, c: fm_pingpong(c, s.msg_bytes, s.iterations),
    "mpi-stream": lambda s, c: mpi_stream(c, s.msg_bytes, s.n_requests,
                                          s.mpi_binding),
    "mpi-pingpong": lambda s, c: PingPongResult(mpi_pingpong_latency_us(
        c, s.msg_bytes, s.iterations, binding=s.mpi_binding), s.iterations),
    "journey": lambda s, c: packet_journey(c, s.msg_bytes),
    "rdma-stream": lambda s, c: rdma_put_stream(c, s.msg_bytes, s.n_requests),
    "rdma-pingpong": lambda s, c: rdma_pingpong(c, s.msg_bytes, s.iterations),
    "link-stream": lambda s, c: lean_stream(c, s.msg_bytes, s.n_requests),
    "bus-stream": lambda s, c: lean_stream(c, s.msg_bytes, s.n_requests),
    **{pattern: lambda s, c: collective_latency(
        c, s.pattern, s.msg_bytes, s.iterations, s.mpi_binding)
       for pattern in COLLECTIVES},
    "pair-streams": lambda s, c: pair_streams(c, s.msg_bytes, s.n_requests),
    "chain-pingpong": lambda s, c: fm_pingpong(
        c, s.msg_bytes, s.iterations, warmup=2, nodes=(0, s.n_nodes - 1)),
    "mpi-alltoall": lambda s, c: mpi_alltoall(c, s.msg_bytes, s.mpi_binding),
}
#: Patterns that pair nodes up, all those on every node of ``n_nodes``
#: (the rest run node 0 -> node 1), those that run on the FM 2.x NIC
#: firmware, those that cannot move 0 bytes, and those that build an MPI
#: world (the only ones that read ``mpi_binding``).
PAIRED = frozenset({"pair-streams", "chain-pingpong"})
GROUP = PAIRED | frozenset(COLLECTIVES) | {"mpi-alltoall"}
FIRMWARE = frozenset({"rdma-stream", "rdma-pingpong", "nic-barrier",
                      "nic-bcast"})
NONEMPTY = frozenset({"rdma-stream", "rdma-pingpong", "nic-bcast"})
MPI = frozenset({"mpi-stream", "mpi-pingpong", "mpi-alltoall",
                 "host-barrier", "host-bcast"})


class MicroStats(RunStats):
    """What one microbenchmark measured: its driver's ``result``."""

    result = None

    def report(self) -> dict:
        return asdict(self.result)


@dataclass(frozen=True)
class MicroScenario(Scenario):
    """``kind="micro"`` — one of :data:`PATTERNS` with ``msg_bytes``
    messages, an :data:`MPI` one over binding ``mpi_binding`` (empty: the
    default).  The drivers run to completion, so ``until_ns`` stays unset."""

    kind: str = "micro"
    n_nodes: int = 2
    pattern: str = "fm-stream"
    msg_bytes: int = 16
    mpi_binding: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._choose(pattern=tuple(PATTERNS), until_ns=(None,))
        self._at_least(n_requests=1, iterations=1,
                       msg_bytes=1 if self.pattern in NONEMPTY else 0)
        if self.pattern not in GROUP:
            self._choose(n_nodes=(2,))
        if self.pattern in FIRMWARE and self.fm_version != 2:
            raise ValueError(f"{self.pattern} runs on the FM 2.x NIC firmware:"
                             f" fm_version must be 2, got {self.fm_version}")
        if self.pattern in PAIRED and self.n_nodes % 2:
            raise ValueError(f"{self.pattern} pairs nodes up: n_nodes must "
                             f"be even, got {self.n_nodes}")
        if self.mpi_binding and self.pattern not in MPI:
            raise ValueError(f"{self.pattern} builds no MPI world: "
                             "mpi_binding must be empty")
        binding_named(self.mpi_binding, self.fm_version)

    def machine_params(self):
        """Figure 3(a)'s first stage runs on a free I/O bus."""
        machine = super().machine_params()
        return free_bus(machine) if self.pattern == "link-stream" else machine

    def topology(self, machine):
        """``chain-pingpong`` crosses a chain of two-host switches."""
        if self.pattern == "chain-pingpong":
            return switch_chain(self.n_nodes, hosts_per_switch=2), None
        return super().topology(machine)

    def build_stats(self, env: "Environment") -> MicroStats:
        return MicroStats(env, name=f"micro.{self.name}")

    def run(self, cluster: "Cluster", stats: MicroStats) -> dict:
        """Run the pattern's driver (no section beyond ``results``)."""
        stats.result = PATTERNS[self.pattern](self, cluster)
        return {}
