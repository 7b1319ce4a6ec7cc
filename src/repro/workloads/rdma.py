"""The one-sided RDMA pingpong workload (``kind="rdma"``).

Node 0 and node 1 each register a landing region, then trade
``iterations`` rounds of ``req_bytes``-sized RDMA puts: the initiator
writes into the responder's region and sleeps on its own completion
queue until the responder's answering put lands — a pure one-sided RTT,
no FM handler or receive-region crossing anywhere on the data path.

The report doubles as the CI transport smoke gate: it sums every NIC's
``rdma_unmatched`` and ``corrupt_offload_packets`` into a
``transport_errors`` section that must read zero on a healthy stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.rdma import RdmaEndpoint
from repro.obs.metrics import RunStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.simkernel.env import Environment
    from repro.workloads.runner import Scenario

#: Responder registration must be visible before the first ping leaves;
#: both sides register at t=0 (one per-message cost, ~2 us) so a 10 us
#: settle delay is far more than enough and keeps the run deterministic.
SETTLE_NS = 10_000


class RdmaStats(RunStats):
    """Everything one pingpong run reports.  There is no fault-window
    section: windowed availability scoring is RPC-shaped, the pingpong's
    health signal is the transport-error gate instead."""

    def __init__(self, env: "Environment", name: str = "rdma"):
        super().__init__(env, name)
        #: One sample per round: put -> answering put landed (full RTT).
        self.rtt = self.reservoir("rtt_ns")
        self.t_first: Optional[int] = None
        self.t_last: Optional[int] = None
        self.nics: list = []

    def note_round(self, rtt_ns: int, nbytes: int) -> None:
        if self.t_first is None:
            self.t_first = self.env.now - rtt_ns
        self.t_last = self.env.now
        self.counters["rounds"] += 1
        self.counters["put_bytes"] += 2 * nbytes  # one put each way
        self.rtt.record(rtt_ns)

    def transport_errors(self) -> dict:
        unmatched = sum(nic.rdma_unmatched for nic in self.nics)
        corrupt = sum(nic.corrupt_offload_packets for nic in self.nics)
        return {
            "rdma_unmatched": unmatched,
            "corrupt_offload_packets": corrupt,
            "total": unmatched + corrupt,
        }

    def report(self) -> dict:
        elapsed = ((self.t_last - self.t_first)
                   if self.t_first is not None else 0)
        put_bytes = self.counters["put_bytes"]
        return {
            "rounds": self.counters["rounds"],
            "put_bytes": put_bytes,
            "rtt": self.rtt.summary(),
            "elapsed_ns": elapsed,
            "goodput_MBps": (round(put_bytes * 1e3 / elapsed, 2)
                             if elapsed > 0 else 0.0),
            "transport_errors": self.transport_errors(),
            "nic": {
                "rdma_write_packets": sum(nic.rdma_write_packets
                                          for nic in self.nics),
                "rdma_write_bytes": sum(nic.rdma_write_bytes
                                        for nic in self.nics),
            },
        }


class RdmaKind:
    """``kind="rdma"`` — the two-node one-sided pingpong of this module:
    ``iterations`` rounds of ``req_bytes``-sized puts; the report is the
    CI transport smoke gate."""

    #: Nothing beyond the shared fields is reported.
    fields = ()
    reads = ("req_bytes",)
    uses_numpy = False

    def report_fields(self, scenario: "Scenario") -> tuple[str, ...]:
        """Nothing beyond the shared fields."""
        return ()

    def validate(self, scenario: "Scenario") -> None:
        """Cross-field checks of an rdma scenario (raises ``ValueError``)."""
        if scenario.fm_version != 2:
            raise ValueError(
                "the one-sided transport extends the FM 2.x NIC "
                "firmware; fm_version must be 2")
        if scenario.iterations < 1:
            raise ValueError(
                f"iterations must be positive, got {scenario.iterations}")
        if scenario.req_bytes < 1:
            raise ValueError(
                f"req_bytes (per-put payload) must be positive, "
                f"got {scenario.req_bytes}")

    def build_stats(self, env: "Environment",
                    scenario: "Scenario") -> RdmaStats:
        """The pingpong's RTT / transport-error stats."""
        return RdmaStats(env, name=f"rdma.{scenario.name}")

    def run(self, cluster: "Cluster", scenario: "Scenario",
            stats: RdmaStats) -> dict:
        """Run the pingpong between nodes 0 and 1 to completion (no
        report section beyond ``results``)."""
        nbytes = scenario.req_bytes
        iterations = scenario.iterations
        endpoints = [RdmaEndpoint(node) for node in cluster.nodes]
        stats.nics = [node.nic for node in cluster.nodes]

        def initiator(node):
            ep = endpoints[0]
            landing = node.buffer(nbytes, name="rdma.pingpong.land0")
            yield from ep.register(landing)              # rkey 1 on node 0
            source = node.buffer(nbytes,
                                 fill=bytes(i % 251 for i in range(nbytes)))
            yield SETTLE_NS
            for _ in range(iterations):
                t0 = node.env.now
                yield from ep.rdma_put(1, 1, source, nbytes)
                yield from ep.wait_completion(lambda c: c.kind == "write")
                stats.note_round(node.env.now - t0, nbytes)

        def responder(node):
            ep = endpoints[1]
            landing = node.buffer(nbytes, name="rdma.pingpong.land1")
            yield from ep.register(landing)              # rkey 1 on node 1
            for _ in range(iterations):
                yield from ep.wait_completion(lambda c: c.kind == "write")
                yield from ep.rdma_put(0, 1, landing, nbytes)

        programs = [initiator, responder] + [None] * (cluster.n_nodes - 2)
        cluster.run(programs, until_ns=scenario.until_ns)
        return {}
