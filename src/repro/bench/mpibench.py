"""MPI-level microbenchmarks: the MPI-FM curves of Figures 4 and 6.

Same conventions as the raw-FM benchmarks: ping-pong halved for one-way
latency; unidirectional message stream for bandwidth.  The bandwidth test
uses a pre-posted receive window (``irecv`` a batch ahead, as MPI bandwidth
tests do) so the receive-posting/zero-copy path of MPI-FM2 is actually
exercised — that path is the paper's point.
"""

from __future__ import annotations

from repro.bench.microbench import PingPongResult, StreamResult
from repro.cluster.cluster import Cluster
from repro.upper.mpi.world import build_mpi_world

#: How many receives the bandwidth test keeps pre-posted.
POSTED_WINDOW = 8


def mpi_pingpong_latency_us(cluster: Cluster, msg_bytes: int = 16,
                            iterations: int = 30, warmup: int = 3) -> float:
    """One-way MPI latency between ranks 0 and 1 (microseconds)."""
    comms = build_mpi_world(cluster)
    total = warmup + iterations
    timestamps: list[int] = []
    payload = bytes(msg_bytes)

    def rank0(node):
        comm = comms[0]
        for _ in range(total):
            timestamps.append(node.env.now)
            yield from comm.send(payload, 1, tag=1)
            yield from comm.recv(1, 2, max_bytes=msg_bytes)
        timestamps.append(node.env.now)

    def rank1(node):
        comm = comms[1]
        for _ in range(total):
            yield from comm.recv(0, 1, max_bytes=msg_bytes)
            yield from comm.send(payload, 0, tag=2)

    cluster.run([rank0, rank1])
    return PingPongResult.of(timestamps, warmup).one_way_latency_us


def mpi_stream(cluster: Cluster, msg_bytes: int,
               n_messages: int = 60) -> StreamResult:
    """Unidirectional MPI message stream, rank 0 -> rank 1."""
    comms = build_mpi_world(cluster)
    payload = bytes(i % 251 for i in range(msg_bytes))
    marks = {}

    def sender(node):
        comm = comms[0]
        marks["start"] = node.env.now
        for _ in range(n_messages):
            yield from comm.send(payload, 1, tag=3)

    def receiver(node):
        comm = comms[1]
        pending = []
        for _ in range(min(POSTED_WINDOW, n_messages)):
            req = yield from comm.irecv(0, 3, max_bytes=msg_bytes)
            pending.append(req)
        completed = 0
        posted = len(pending)
        while completed < n_messages:
            req = pending.pop(0)
            data, _status = yield from comm.wait(req)
            if data != payload:
                raise AssertionError(
                    f"payload corrupted at message {completed}"
                )
            completed += 1
            if posted < n_messages:
                req = yield from comm.irecv(0, 3, max_bytes=msg_bytes)
                pending.append(req)
                posted += 1
        marks["end"] = node.env.now

    cluster.run([sender, receiver])
    elapsed = marks["end"] - marks["start"]
    bandwidth = msg_bytes * n_messages / (elapsed / 1e9)
    return StreamResult(bandwidth_mbs=bandwidth / 1e6, msg_bytes=msg_bytes,
                        n_messages=n_messages, elapsed_ns=elapsed)
