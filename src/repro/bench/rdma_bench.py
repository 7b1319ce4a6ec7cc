"""RDMA microbenchmarks: one-sided streaming bandwidth and collective
latency, the measurements behind the extension figures in EXPERIMENTS.md.

Conventions mirror :mod:`repro.bench.microbench`:

* **put bandwidth** — a unidirectional stream of back-to-back
  ``rdma_put`` operations of one size; bandwidth = payload bytes landed /
  simulated time from the first post to the last *remote* write
  completion, in the paper's MB/s (10^6 bytes/second).
* **collective latency** — back-to-back barriers (or broadcasts) averaged
  over iterations after the first; SPMD across the whole cluster, so the
  number reported is the full-group completion time, not one rank's.
"""

from __future__ import annotations

from typing import Sequence

from repro.hardware.params import MachineParams

from repro.bench.sweeps import SweepResult, sweep_with
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.core.rdma import NicCollectives, RdmaEndpoint


def rdma_stream(cluster: Cluster, msg_bytes: int,
                n_messages: int = 60) -> float:
    """Streaming one-sided put bandwidth node 0 -> node 1, in MB/s."""
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
    elapsed = done_at[0] - start_at[0]
    if elapsed <= 0:
        raise RuntimeError("bandwidth measurement produced non-positive time")
    return msg_bytes * n_messages / (elapsed / 1e9) / 1e6


def rdma_bandwidth_sweep(machine: MachineParams, sizes: Sequence[int],
                         n_messages: int = 60,
                         label: str = "RDMA put") -> SweepResult:
    """Put-bandwidth curve, one fresh two-node cluster per size."""
    return sweep_with(
        lambda size: rdma_stream(Cluster(2, machine=machine, fm_version=2),
                                 size, n_messages=n_messages),
        sizes, label)


def _collective_latency(cluster: Cluster, run_iteration,
                        iterations: int) -> float:
    """Average full-group completion time of ``iterations`` back-to-back
    collective rounds (first round excluded as warm-up)."""
    marks: list[int] = []

    def make_program(rank: int):
        def program(node: Node):
            for _ in range(iterations + 1):
                yield from run_iteration(rank, node)
                if rank == 0:
                    marks.append(node.env.now)
        return program

    cluster.run([make_program(r) for r in range(cluster.n_nodes)])
    deltas = [b - a for a, b in zip(marks, marks[1:])]
    return sum(deltas) / len(deltas)


def nic_barrier_latency_ns(machine: MachineParams, n_nodes: int,
                           iterations: int = 10) -> float:
    """Average NIC-offloaded dissemination-barrier latency."""
    cluster = Cluster(n_nodes, machine=machine, fm_version=2)
    colls = [NicCollectives(node, n_nodes) for node in cluster.nodes]

    def run_iteration(rank, node):
        yield from colls[rank].barrier()

    return _collective_latency(cluster, run_iteration, iterations)


def host_barrier_latency_ns(machine: MachineParams, n_nodes: int,
                            iterations: int = 10) -> float:
    """Average host-level MPI barrier latency (the software fallback)."""
    from repro.upper.mpi import build_mpi_world
    cluster = Cluster(n_nodes, machine=machine, fm_version=2)
    comms = build_mpi_world(cluster)

    def run_iteration(rank, node):
        yield from comms[rank].barrier()

    return _collective_latency(cluster, run_iteration, iterations)


def nic_bcast_latency_ns(machine: MachineParams, n_nodes: int,
                         nbytes: int, iterations: int = 10) -> float:
    """Average NIC-offloaded binomial-tree broadcast latency."""
    cluster = Cluster(n_nodes, machine=machine, fm_version=2)
    colls = [NicCollectives(node, n_nodes) for node in cluster.nodes]
    buffers = [node.buffer(nbytes, fill=bytes(nbytes))
               for node in cluster.nodes]

    def run_iteration(rank, node):
        yield from colls[rank].bcast(buffers[rank], nbytes, 0)

    return _collective_latency(cluster, run_iteration, iterations)


def host_bcast_latency_ns(machine: MachineParams, n_nodes: int,
                          nbytes: int, iterations: int = 10) -> float:
    """Average host-level MPI broadcast latency (the software fallback)."""
    from repro.upper.mpi import build_mpi_world
    cluster = Cluster(n_nodes, machine=machine, fm_version=2)
    comms = build_mpi_world(cluster)
    payload = bytes(nbytes)

    def run_iteration(rank, node):
        yield from comms[rank].bcast(payload if rank == 0 else None, root=0)

    return _collective_latency(cluster, run_iteration, iterations)
