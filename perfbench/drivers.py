"""perfbench's own microbenchmark drivers: streams, ping-pongs, one-sided
puts/gets and NIC barriers.

Written only against the paper's Table 1/2 calls (``register_handler``,
``send`` / ``send_buffer``, ``extract``, ``stream.receive``) plus
``build_mpi_world``, ``RdmaEndpoint`` and ``NicCollectives``, so that
``repro.bench.*`` can be collapsed later without touching the benchmark of
record.  Conventions are the community's (and ``repro.bench``'s, which
``test_perfbench.py`` cross-checks): one-way latency is half a ping-pong
round trip after a warm-up; bandwidth is payload bytes delivered over the
simulated time from first send to last delivery, in 10^6 B/s.

Every driver checks what it moved (payload equality) and returns a
``check`` flag; nothing here reads a host clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rdma import NicCollectives, RdmaEndpoint
from repro.upper.mpi import build_mpi_world

#: Receive-loop backoff when nothing is pending (simulated ns).
IDLE_POLL_NS = 200
#: Ping-pong round trips discarded before timing starts.
PINGPONG_WARMUP = 3
#: Receives an MPI bandwidth test keeps pre-posted.
MPI_POSTED_WINDOW = 8


@dataclass
class StreamResult:
    mbps: float          # 10^6 payload bytes per simulated second
    messages: int        # delivered and counted by the receiver
    elapsed_ns: int
    check: bool          # what landed equals what was sent


@dataclass
class LatencyResult:
    samples_ns: list[float]   # one per timed iteration, warm-up excluded
    messages: int             # everything delivered, warm-up included
    check: bool

    @property
    def mean_us(self) -> float:
        return sum(self.samples_ns) / len(self.samples_ns) / 1e3


def _mbps(nbytes: int, elapsed_ns: int) -> float:
    if elapsed_ns <= 0:
        raise RuntimeError("bandwidth measurement produced non-positive time")
    return nbytes / (elapsed_ns / 1e9) / 1e6


def _register_on_all(cluster, handler) -> int:
    """SPMD registration: the same handler, the same id, on every node."""
    ids = {node.fm.register_handler(handler) for node in cluster.nodes}
    if len(ids) != 1:
        raise RuntimeError("handler tables out of sync across nodes")
    return ids.pop()


def _fm_send(cluster, fm, dest, hid, buf, nbytes):
    if cluster.fm_version == 1:
        yield from fm.send(dest, hid, buf, nbytes)
    else:
        yield from fm.send_buffer(dest, hid, buf, nbytes)


# -- raw FM ------------------------------------------------------------------
def fm_stream(cluster, payload: bytes, n_messages: int) -> StreamResult:
    """``n_messages`` back-to-back messages node 0 -> node 1 on raw FM."""
    msg_bytes = len(payload)
    fm2 = cluster.fm_version == 2
    done = [0, 0]           # messages delivered, time of the last delivery
    sink = cluster.node(1).buffer(max(msg_bytes, 1), name="perfbench.sink")
    last = []               # FM 1.x: the final message's staging snapshot

    if fm2:
        def handler(fm, stream, src):
            yield from stream.receive(sink, 0, stream.msg_bytes)
            done[0] += 1
            done[1] = fm.env.now
    else:
        def handler(fm, src, staging, nbytes):
            done[0] += 1
            done[1] = fm.env.now
            if done[0] == n_messages:
                last.append(staging.read(0, nbytes))
            return
            yield  # generator marker

    hid = _register_on_all(cluster, handler)
    start = [0]

    def sender(node):
        buf = node.buffer(msg_bytes, fill=payload)
        start[0] = node.env.now
        for _ in range(n_messages):
            yield from _fm_send(cluster, node.fm, 1, hid, buf, msg_bytes)

    def receiver(node):
        while done[0] < n_messages:
            got = yield from node.fm.extract()
            if not got:
                yield node.env.timeout(IDLE_POLL_NS)

    cluster.run([sender, receiver])
    landed = sink.read(0, msg_bytes) if fm2 else (last[0] if last else b"")
    elapsed = done[1] - start[0]
    return StreamResult(_mbps(msg_bytes * n_messages, elapsed), done[0],
                        elapsed, landed == payload)


def fm_pingpong(cluster, payload: bytes, iterations: int) -> LatencyResult:
    """Closed loop of one: node 0 sends, node 1 echoes, ``iterations`` timed
    round trips after :data:`PINGPONG_WARMUP`; samples are one-way (rtt / 2)."""
    msg_bytes = len(payload)
    arrived = [0] * cluster.n_nodes

    if cluster.fm_version == 2:
        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)
            arrived[fm.node_id] += 1
    else:
        def handler(fm, src, staging, nbytes):
            arrived[fm.node_id] += 1
            return
            yield  # generator marker

    hid = _register_on_all(cluster, handler)
    total = PINGPONG_WARMUP + iterations
    stamps: list[int] = []

    def make_program(me, peer, starts):
        def program(node):
            fm = node.fm
            buf = node.buffer(msg_bytes, fill=payload)
            count = 0
            if starts:
                stamps.append(node.env.now)
                yield from _fm_send(cluster, fm, peer, hid, buf, msg_bytes)
            while count < total:
                before = arrived[me]
                yield from fm.extract()
                if arrived[me] == before:
                    yield node.env.timeout(IDLE_POLL_NS)
                    continue
                count += arrived[me] - before
                if starts:
                    stamps.append(node.env.now)
                if count < total or not starts:
                    yield from _fm_send(cluster, fm, peer, hid, buf, msg_bytes)
        return program

    cluster.run([make_program(0, 1, True), make_program(1, 0, False)])
    rtts = [b - a for a, b in zip(stamps, stamps[1:])][PINGPONG_WARMUP:]
    return LatencyResult([rtt / 2.0 for rtt in rtts], sum(arrived),
                         arrived == [total, total])


# -- MPI over FM ---------------------------------------------------------------
@dataclass
class MpiStreamResult(StreamResult):
    unexpected: int = 0
    spills: int = 0
    rendezvous: int = 0


def mpi_stream(cluster, payload: bytes, n_messages: int) -> MpiStreamResult:
    """Rank 0 -> rank 1 message stream into a pre-posted ``irecv`` window;
    every received payload is compared with what was sent."""
    comms = build_mpi_world(cluster)
    msg_bytes = len(payload)
    marks = {}
    good = [0]

    def sender(node):
        marks["start"] = node.env.now
        for _ in range(n_messages):
            yield from comms[0].send(payload, 1, tag=3)

    def receiver(node):
        comm = comms[1]
        pending = []
        for _ in range(min(MPI_POSTED_WINDOW, n_messages)):
            pending.append((yield from comm.irecv(0, 3, max_bytes=msg_bytes)))
        posted = len(pending)
        for _ in range(n_messages):
            data, _status = yield from comm.wait(pending.pop(0))
            good[0] += data == payload
            if posted < n_messages:
                pending.append(
                    (yield from comm.irecv(0, 3, max_bytes=msg_bytes)))
                posted += 1
        marks["end"] = node.env.now

    cluster.run([sender, receiver])
    elapsed = marks["end"] - marks["start"]
    engines = [comm.engine for comm in comms]
    return MpiStreamResult(
        _mbps(msg_bytes * n_messages, elapsed), n_messages, elapsed,
        good[0] == n_messages,
        unexpected=sum(e.stats_unexpected for e in engines),
        spills=sum(e.stats_spills for e in engines),
        rendezvous=sum(e.stats_rendezvous for e in engines))


def mpi_pingpong(cluster, payload: bytes, iterations: int) -> LatencyResult:
    """Blocking send/recv ping-pong between ranks 0 and 1; samples are
    one-way (rtt / 2)."""
    comms = build_mpi_world(cluster)
    msg_bytes = len(payload)
    total = PINGPONG_WARMUP + iterations
    stamps: list[int] = []
    good = [0]

    def rank0(node):
        for _ in range(total):
            stamps.append(node.env.now)
            yield from comms[0].send(payload, 1, tag=1)
            data, _status = yield from comms[0].recv(1, 2, max_bytes=msg_bytes)
            good[0] += data == payload
        stamps.append(node.env.now)

    def rank1(node):
        for _ in range(total):
            data, _status = yield from comms[1].recv(0, 1, max_bytes=msg_bytes)
            yield from comms[1].send(data, 0, tag=2)

    cluster.run([rank0, rank1])
    rtts = [b - a for a, b in zip(stamps, stamps[1:])][PINGPONG_WARMUP:]
    return LatencyResult([rtt / 2.0 for rtt in rtts], 2 * total,
                         good[0] == total)


# -- one-sided -------------------------------------------------------------------
def rdma_put_stream(cluster, payload: bytes, n_messages: int) -> StreamResult:
    """Back-to-back ``rdma_put`` node 0 -> node 1; time runs to the last
    *remote* write completion."""
    msg_bytes = len(payload)
    endpoints = [RdmaEndpoint(node) for node in cluster.nodes]
    landing = cluster.node(1).buffer(msg_bytes, name="perfbench.landing")
    marks = [0, 0, 0]       # start, end, completions seen

    def sender(node):
        source = node.buffer(msg_bytes, fill=payload)
        yield node.env.timeout(1)    # the receiver's registration lands first
        marks[0] = node.env.now
        for _ in range(n_messages):
            yield from endpoints[0].rdma_put(1, 1, source, msg_bytes)

    def receiver(node):
        yield from endpoints[1].register(landing)    # rkey 1
        for _ in range(n_messages):
            yield from endpoints[1].wait_completion(
                lambda c: c.kind == "write")
            marks[2] += 1
        marks[1] = node.env.now

    cluster.run([sender, receiver])
    elapsed = marks[1] - marks[0]
    return StreamResult(_mbps(msg_bytes * n_messages, elapsed), marks[2],
                        elapsed, landing.read(0, msg_bytes) == payload)


def rdma_get_stream(cluster, payload: bytes, n_messages: int) -> StreamResult:
    """``n_messages`` blocking ``rdma_get`` reads by node 0 of a region
    node 1 registered; node 1's host does nothing after registering."""
    msg_bytes = len(payload)
    endpoints = [RdmaEndpoint(node) for node in cluster.nodes]
    local = cluster.node(0).buffer(msg_bytes, name="perfbench.get_local")
    marks = [0, 0, 0]

    def reader(node):
        yield node.env.timeout(1)
        marks[0] = node.env.now
        for _ in range(n_messages):
            yield from endpoints[0].rdma_get(1, 1, local, msg_bytes)
            marks[2] += 1
        marks[1] = node.env.now

    def target(node):
        region = node.buffer(msg_bytes, fill=payload)
        yield from endpoints[1].register(region)     # rkey 1

    cluster.run([reader, target])
    elapsed = marks[1] - marks[0]
    return StreamResult(_mbps(msg_bytes * n_messages, elapsed), marks[2],
                        elapsed, local.read(0, msg_bytes) == payload)


def nic_barriers(cluster, iterations: int) -> LatencyResult:
    """``iterations`` back-to-back NIC-offloaded barriers across the whole
    cluster after one warm-up; samples are full-group completion times as
    rank 0 sees them."""
    n = cluster.n_nodes
    colls = [NicCollectives(node, n) for node in cluster.nodes]
    marks: list[int] = []

    def make_program(rank):
        def program(node):
            for _ in range(iterations + 1):
                yield from colls[rank].barrier()
                if rank == 0:
                    marks.append(node.env.now)
        return program

    cluster.run([make_program(rank) for rank in range(n)])
    completed = [coll.stats_barriers for coll in colls]
    return LatencyResult([float(b - a) for a, b in zip(marks, marks[1:])],
                         iterations + 1,
                         completed == [iterations + 1] * n)
