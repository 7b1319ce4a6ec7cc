"""Raw-FM microbenchmarks: ping-pong latency and streaming bandwidth.

These are the tests behind Figure 3(b) and Figure 5 and the FM curves of
Figures 4 and 6.  Conventions follow the paper's community practice:

* **latency** — one-way short-message latency = half the round-trip of a
  ping-pong, averaged over iterations after a warm-up;
* **bandwidth** — a unidirectional stream of back-to-back messages of one
  size; bandwidth = payload bytes delivered to handlers / simulated time
  from the first send to the last handler completion, reported in the
  paper's MB/s (10^6 bytes/second).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.simkernel.units import MICROSECOND

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.core.fm1.api import FM1

#: Poll backoff used by benchmark receive loops when nothing is pending.
IDLE_POLL_NS = 200


@dataclass
class PingPongResult:
    one_way_latency_us: float
    round_trips: int

    @classmethod
    def of(cls, starts: list[int], warmup: int) -> "PingPongResult":
        """Half the mean round trip between ``starts`` past ``warmup``."""
        rtts = [b - a for a, b in zip(starts, starts[1:])][warmup:]
        return cls(sum(rtts) / len(rtts) / 2.0 / MICROSECOND, len(rtts))


@dataclass
class StreamResult:
    bandwidth_mbs: float
    msg_bytes: int
    n_messages: int
    elapsed_ns: int

    @classmethod
    def of(cls, msg_bytes: int, n_messages: int,
           elapsed_ns: int) -> "StreamResult":
        """``n_messages`` of ``msg_bytes`` delivered in ``elapsed_ns``, in
        the paper's MB/s (10^6 bytes/second)."""
        if elapsed_ns <= 0:
            raise RuntimeError(
                "bandwidth measurement produced non-positive time")
        return cls(msg_bytes * n_messages / (elapsed_ns / 1e9) / 1e6,
                   msg_bytes, n_messages, elapsed_ns)


@dataclass
class PairStreams:
    pairs: list[StreamResult]   # pair i streams node 2i -> node 2i+1


def _register_on_all(cluster: Cluster, handler) -> int:
    """Register the same handler on every node (SPMD convention)."""
    ids = {node.fm.register_handler(handler) for node in cluster.nodes}
    if len(ids) != 1:
        raise RuntimeError("handler tables out of sync across nodes")
    return ids.pop()


def register_handler(cluster: Cluster, on_message: Callable) -> int:
    """Register on every node a handler, in the cluster's FM generation's
    form, that takes the whole message in and then calls ``on_message(fm)``
    with the receiving endpoint; returns the handler id."""
    if cluster.fm_version == 1:
        def handler(fm, src, staging, nbytes):
            on_message(fm)
            return
            yield  # pragma: no cover - generator marker
    else:
        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)
            on_message(stream.fm)
    return _register_on_all(cluster, handler)


def extract_until(node: Node, done: Callable[[], bool]):
    """The raw-FM program's receive loop: ``FM_extract`` until ``done()``,
    backing off :data:`IDLE_POLL_NS` after a pass that presented nothing."""
    while not done():
        got = yield from node.fm.extract()
        if not got:
            yield IDLE_POLL_NS


# -- ping-pong -------------------------------------------------------------------

def fm_pingpong(cluster: Cluster, msg_bytes: int = 16, iterations: int = 30,
                warmup: int = 3,
                nodes: tuple[int, int] = (0, 1)) -> PingPongResult:
    """Round-trip ping-pong on raw FM between ``nodes`` (the first starts);
    every other node of the cluster stays idle."""
    arrived = [0] * cluster.n_nodes   # messages received per node

    def count(fm):
        arrived[fm.node_id] += 1

    hid = register_handler(cluster, count)
    total = warmup + iterations
    timestamps: list[int] = []

    def make_program(me: int, peer: int, starts: bool):
        def program(node: Node):
            fm = node.fm
            buf = node.buffer(msg_bytes, fill=bytes(msg_bytes))
            count = 0
            if starts:
                timestamps.append(node.env.now)
                yield from fm_send(fm, peer, hid, buf, msg_bytes)
            while count < total:
                before = arrived[me]
                yield from fm.extract()
                if arrived[me] == before:
                    yield IDLE_POLL_NS
                    continue
                count += arrived[me] - before
                if starts:
                    timestamps.append(node.env.now)
                if count < total or not starts:
                    yield from fm_send(fm, peer, hid, buf, msg_bytes)
        return program

    first, second = nodes
    programs: list = [None] * cluster.n_nodes
    programs[first] = make_program(first, second, True)
    programs[second] = make_program(second, first, False)
    cluster.run(programs)
    return PingPongResult.of(timestamps, warmup)


def fm_send(fm, dest: int, hid: int, buf, nbytes: int):
    """Send ``buf`` whole through either FM generation's API."""
    send = fm.send if isinstance(fm, FM1) else fm.send_buffer
    return send(dest, hid, buf, nbytes)


# -- streaming bandwidth --------------------------------------------------------------

def fm_stream(cluster: Cluster, msg_bytes: int,
              n_messages: int = 60) -> StreamResult:
    """Unidirectional stream of ``n_messages`` messages node 0 -> node 1.
    FM 2.x handlers deliver into a reusable sink buffer on the receiver,
    mirroring the paper's bandwidth test (``FM_receive`` into a buffer)."""
    done_count = [0]
    done_at = [0]

    if cluster.fm_version == 1:
        def handler(fm, src, staging, nbytes):
            done_count[0] += 1
            done_at[0] = fm.env.now
            return
            yield  # pragma: no cover - generator marker
    else:
        sink = cluster.node(1).buffer(max(msg_bytes, 1), name="bench_sink")

        def handler(fm, stream, src):
            yield from stream.receive(sink, 0, stream.msg_bytes)
            done_count[0] += 1
            done_at[0] = stream.fm.env.now

    hid = _register_on_all(cluster, handler)
    start_at = [0]

    def sender(node: Node):
        buf = node.buffer(msg_bytes, fill=bytes(i % 251 for i in range(msg_bytes)))
        start_at[0] = node.env.now
        for _ in range(n_messages):
            yield from fm_send(node.fm, 1, hid, buf, msg_bytes)

    def receiver(node: Node):
        return extract_until(node, lambda: done_count[0] >= n_messages)

    cluster.run([sender, receiver])
    return StreamResult.of(msg_bytes, n_messages, done_at[0] - start_at[0])


def pair_streams(cluster: Cluster, msg_bytes: int,
                 n_messages: int) -> PairStreams:
    """Every node pair streaming at once, node ``2i`` -> node ``2i+1``: on
    one non-blocking crossbar each pair should keep its solo bandwidth."""
    arrived = [0] * cluster.n_nodes   # messages in, per receiver
    start = [0] * cluster.n_nodes     # first send, per sender
    end = [0] * cluster.n_nodes       # last handler done, per receiver

    def count(fm):
        arrived[fm.node_id] += 1
        end[fm.node_id] = fm.env.now

    hid = register_handler(cluster, count)

    def sender(node: Node):
        start[node.node_id] = node.env.now
        buf = node.buffer(msg_bytes)
        for _ in range(n_messages):
            yield from fm_send(node.fm, node.node_id + 1, hid, buf, msg_bytes)

    def receiver(node: Node):
        me = node.node_id
        return extract_until(node, lambda: arrived[me] >= n_messages)

    cluster.run([sender, receiver] * (cluster.n_nodes // 2))
    return PairStreams([StreamResult.of(msg_bytes, n_messages, last - first)
                        for first, last in zip(start[::2], end[1::2])])
