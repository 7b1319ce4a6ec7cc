"""RDMA microbenchmarks: one-sided streaming bandwidth, put ping-pong
latency and collective latency, the measurements behind the extension
figures in EXPERIMENTS.md and the ``rdma-pingpong`` transport smoke.  They
run as the ``rdma-stream``, ``rdma-pingpong`` and the four collective
patterns of ``kind="micro"`` (:mod:`repro.bench.micro`).

Conventions mirror :mod:`repro.bench.microbench`:

* **put bandwidth** — a unidirectional stream of back-to-back
  ``rdma_put`` operations of one size; bandwidth = payload bytes landed /
  simulated time from the first post to the last *remote* write
  completion, in the paper's MB/s (10^6 bytes/second).
* **put latency** — half the mean round trip of a put answered by a put,
  every round counted: the rounds are identical, so there is no warm-up.
* **collective latency** — back-to-back barriers (or broadcasts) averaged
  over iterations after the first; SPMD across the whole cluster, so the
  number reported is the full-group completion time, not one rank's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.hardware.params import MachineParams

from repro.bench.microbench import PingPongResult, StreamResult
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.core.rdma import NicCollectives, RdmaEndpoint
from repro.upper.mpi.world import build_mpi_world


def rdma_put_stream(cluster: Cluster, msg_bytes: int,
                    n_messages: int) -> StreamResult:
    """Streaming one-sided puts node 0 -> node 1."""
    endpoints = [RdmaEndpoint(node) for node in cluster.nodes]
    start_at = [0]
    done_at = [0]

    def sender(node: Node):
        source = node.buffer(msg_bytes,
                             fill=bytes(i % 251 for i in range(msg_bytes)))
        # Let the receiver's registration land first (it is instantaneous
        # in sim order anyway, but keep the dependency explicit).
        yield 1
        start_at[0] = node.env.now
        for _ in range(n_messages):
            yield from endpoints[0].rdma_put(1, 1, source, msg_bytes)

    def receiver(node: Node):
        landing = node.buffer(msg_bytes, name="rdma_bench.landing")
        yield from endpoints[1].register(landing)    # rkey 1
        for _ in range(n_messages):
            yield from endpoints[1].wait_completion(
                lambda c: c.kind == "write")
        done_at[0] = node.env.now

    cluster.run([sender, receiver])
    return StreamResult.of(msg_bytes, n_messages, done_at[0] - start_at[0])


def rdma_pingpong(cluster: Cluster, msg_bytes: int,
                  iterations: int) -> PingPongResult:
    """Put ping-pong between nodes 0 and 1: each round node 0 puts into
    node 1's region and waits for node 1's answering put to land in its
    own — a one-sided round trip with no handler on the data path."""
    endpoints = [RdmaEndpoint(node) for node in cluster.nodes]
    starts: list[int] = []

    def initiator(node: Node):
        ep = endpoints[0]
        region = node.buffer(msg_bytes)
        yield from ep.register(region)                    # rkey 1
        # Both sides register at t=0 (~2 us); 10 us is ample for node 1's.
        yield 10_000
        starts.append(node.env.now)
        for _ in range(iterations):
            yield from ep.rdma_put(1, 1, region, msg_bytes)
            yield from ep.wait_completion(lambda c: c.kind == "write")
            starts.append(node.env.now)

    def responder(node: Node):
        ep = endpoints[1]
        region = node.buffer(msg_bytes)
        yield from ep.register(region)                    # rkey 1
        for _ in range(iterations):
            yield from ep.wait_completion(lambda c: c.kind == "write")
            yield from ep.rdma_put(0, 1, region, msg_bytes)

    cluster.run([initiator, responder])
    return PingPongResult.of(starts, 0)


def rdma_stream(cluster: Cluster, msg_bytes: int,
                n_messages: int = 60) -> float:
    """Streaming one-sided put bandwidth node 0 -> node 1, in MB/s."""
    return rdma_put_stream(cluster, msg_bytes, n_messages).bandwidth_mbs


@dataclass
class CollectiveResult:
    latency_ns: float   # mean full-group round, the first one excluded
    rounds: int


#: collective pattern -> ``(cluster, nbytes, binding) -> round per rank``:
#: the NIC firmware's engines, or the host MPI stack as the software fallback.
COLLECTIVES = {
    "nic-barrier": lambda cluster, nbytes, binding: [
        NicCollectives(node, cluster.n_nodes).barrier
        for node in cluster.nodes],
    "host-barrier": lambda cluster, nbytes, binding: [
        comm.barrier for comm in build_mpi_world(cluster, binding)],
    "nic-bcast": lambda cluster, nbytes, binding: [
        partial(NicCollectives(node, cluster.n_nodes).bcast,
                node.buffer(nbytes, fill=bytes(nbytes)), nbytes, 0)
        for node in cluster.nodes],
    "host-bcast": lambda cluster, nbytes, binding: [
        partial(comm.bcast, bytes(nbytes) if rank == 0 else None, root=0)
        for rank, comm in enumerate(build_mpi_world(cluster, binding))],
}


def collective_latency(cluster: Cluster, pattern: str, nbytes: int,
                       iterations: int, binding: str = "") -> CollectiveResult:
    """Average full-group completion time of ``iterations`` back-to-back
    rounds of the collective ``pattern`` (first round excluded as
    warm-up)."""
    rounds = COLLECTIVES[pattern](cluster, nbytes, binding)
    marks: list[int] = []

    def program(node: Node):
        for _ in range(iterations + 1):
            yield from rounds[node.node_id]()
            if node.node_id == 0:
                marks.append(node.env.now)

    cluster.run([program] * cluster.n_nodes)
    deltas = [b - a for a, b in zip(marks, marks[1:])]
    return CollectiveResult(sum(deltas) / len(deltas), len(deltas))


def nic_barrier_latency_ns(machine: MachineParams, n_nodes: int,
                           iterations: int = 10) -> float:
    """Average NIC-offloaded dissemination-barrier latency (``perfbench``
    checks its own barrier driver against this)."""
    return collective_latency(Cluster(n_nodes, machine=machine, fm_version=2),
                              "nic-barrier", 0, iterations).latency_ns
