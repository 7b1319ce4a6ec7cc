"""Placed dataflow runtimes: endpoints, edges, stages, and the pump.

How backpressure works here (the tentpole mechanism, end to end):

1. Every non-source stage owns a bounded :class:`~repro.simkernel.store
   .Store` input queue.
2. Each node runs one *pump* (mirroring :class:`~repro.workloads.rpc
   .RpcServer`'s): drain the endpoint inbox into the destination stages'
   queues, then ``fm.extract(budget)``, then ``fm.idle_wait()``.
   ``yield queue.put(record)`` **blocks while the queue is full** — and a
   blocked pump extracts nothing.
3. With extract stopped, the NIC's host receive region fills and credit
   returns stop (credits are returned per *processed* packet — §4.1's
   ``FM_extract(maxbytes)`` receiver flow control).
4. Upstream senders exhaust their credit ledger and spin in
   ``acquire_credit`` — the stall is charged to the *emitting stage* via
   the core ``on_credit_stall`` hook, so the report shows exactly which
   hop was paced.

No dataflow-specific protocol, retransmission, or ack machinery: the FM
credit scheme the paper already has *is* the backpressure carrier, which
is the layering argument this subsystem exists to exercise.

The pump keeps one lane (a bounded staging deque) per remote-fed stage
and round-robins delivery across them, so a full queue stalls only its
own lane: records for co-hosted stages keep flowing.  Extraction is gated
on a lane reaching its bound, at which point the pump parks in a blocking
``put`` on that stage — restoring exactly the strict backpressure chain
above.  Lanes that share a pump stage one queue's worth each; a lone lane
stages only the record it is delivering, which is strict arrival-order
delivery, event for event.

Same-node edges never touch FM (FM forbids self-sends): a local handoff
charges the host memcpy cost for the record's wire footprint and puts
straight into the downstream queue — still bounded, still blocking, so
backpressure composes across local and remote hops alike.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import TYPE_CHECKING, Generator, Optional

from repro.hardware.memory import Buffer
from repro.hardware.packet import Site

from repro.core.fm1.api import FM1

from repro.dataflow.graph import StageSpec
from repro.dataflow.ops import (
    FILTER_OPS,
    MAP_OPS,
    WindowState,
    lookup,
)
from repro.dataflow.records import (
    EDGE_HEADER,
    EOS_FLAG,
    RECORD,
    Eos,
    pack_message,
)
from repro.dataflow.stats import PipelineStats, StageStats

from repro.simkernel.store import Store
from repro.workloads.arrivals import client_rng, gap_stream

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node


class DataflowEndpoint:
    """One node's attachment point: a single SPMD-registered FM2 handler
    that parses edge-framed record messages into an inbox for the pump."""

    def __init__(self, node: "Node"):
        if node.fm is None:
            raise RuntimeError(f"node {node.node_id} has no FM endpoint")
        if isinstance(node.fm, FM1):
            raise RuntimeError(
                "the dataflow engine needs FM 2.x streams (fm_version=2): "
                "edges are gathered/scattered messages with receiver-side "
                "extract pacing")
        self.node = node
        self.fm = node.fm
        #: Parsed ``(edge_id, records, flags)`` messages awaiting the pump.
        self.inbox: deque[tuple[int, list, int]] = deque()
        self.handler_id = self.fm.register_handler(self._handler)

    def _handler(self, fm, stream, src) -> Generator:
        head = yield from stream.receive_bytes(EDGE_HEADER.size)
        edge_id, n_records, flags = EDGE_HEADER.unpack(head)
        records: list = []
        if n_records:
            body = yield from stream.receive_bytes(n_records * RECORD.size)
            records = list(RECORD.iter_unpack(body))
        # Padding (the modelled fat-record remainder) stays unconsumed:
        # FM 2.x lets a handler take less than the full message (§4.2).
        self.inbox.append((edge_id, records, flags))

    def send_records(self, dest: int, edge_id: int, records: list,
                     flags: int, record_bytes: int) -> Generator:
        payload = pack_message(edge_id, records, flags, record_bytes)
        buf = Buffer.from_bytes(payload, name=f"dataflow.edge{edge_id}")
        return self.fm.send_gather(dest, self.handler_id, [buf])


class EdgeRuntime:
    """One placed edge (src stage -> dst stage), local or FM2-carried."""

    __slots__ = ("edge_id", "src_name", "dst", "src_node", "dst_node",
                 "local", "sent", "received", "messages")

    def __init__(self, edge_id: int, src_name: str, dst: "StageRuntime",
                 src_node: int):
        self.edge_id = edge_id
        self.src_name = src_name
        self.dst = dst
        self.src_node = src_node
        self.dst_node = dst.node.node_id
        self.local = self.src_node == self.dst_node
        self.sent = 0
        self.received = 0
        self.messages = 0

    def as_dict(self) -> dict:
        return {
            "edge_id": self.edge_id,
            "src": self.src_name,
            "dst": self.dst.spec.name,
            "src_node": self.src_node,
            "dst_node": self.dst_node,
            "local": self.local,
            "records": self.sent,
            "messages": self.messages,
        }


class GroupRuntime:
    """One stage's fan-out group: the selector picks the edge per record."""

    __slots__ = ("selector", "edges", "_rr")

    def __init__(self, selector: str, edges: list[EdgeRuntime]):
        self.selector = selector
        self.edges = edges
        self._rr = 0

    def select(self, record: tuple) -> EdgeRuntime:
        edges = self.edges
        if self.selector == "direct" or len(edges) == 1:
            return edges[0]
        if self.selector == "hash":
            key = record[0]
            digest = zlib.crc32(key.to_bytes(8, "little", signed=True))
            return edges[digest % len(edges)]
        lane = self._rr % len(edges)
        self._rr += 1
        return edges[lane]


class StageRuntime:
    """Common machinery: the bounded queue, emission, EOS fan-out."""

    def __init__(self, spec: StageSpec, node: "Node",
                 endpoint: DataflowEndpoint, stats: PipelineStats,
                 stage_stats: StageStats, queue_capacity: int,
                 record_bytes: int):
        self.spec = spec
        self.node = node
        self.env = node.env
        self.endpoint = endpoint
        self.stats = stats
        self.stage_stats = stage_stats
        self.record_bytes = record_bytes
        track = f"node{node.node_id}/dataflow"
        self._done_site = Site("dataflow", "stage.done", track, "stage", "processed")
        self._flush_site = Site("dataflow", "window.flush", track,
                                "stage", "aggregates")
        self.queue: Optional[Store] = None
        if spec.kind != "source":
            self.queue = Store(self.env, capacity=queue_capacity,
                               name=f"dataflow.{spec.name}@{node.node_id}")
        self.out_groups: list[GroupRuntime] = []
        self.in_edges: list[EdgeRuntime] = []
        self.done = self.env.event()

    # -- emission ----------------------------------------------------------
    def _emit(self, record: tuple) -> Generator:
        self.stage_stats.counters["emitted"] += 1
        for group in self.out_groups:
            edge = group.select(record)
            yield from self._send(edge, [record], 0)

    def _send(self, edge: EdgeRuntime, records: list,
              flags: int) -> Generator:
        if edge.local:
            # Same-node handoff: no FM (self-sends are illegal), but the
            # record's wire footprint is still copied host-side and the
            # destination queue still bounds it.
            cpu = self.node.cpu
            for record in records:
                yield from cpu.execute(
                    cpu.memcpy_cost(self.record_bytes))
                yield edge.dst.queue.put(record)
                edge.sent += 1
                edge.received += 1
                self.stats.note_queue_depth(edge.dst.stage_stats,
                                            edge.dst.queue.level)
                self.stats.counters["local_handoffs"] += 1
            if flags & EOS_FLAG:
                yield edge.dst.queue.put(Eos(edge.edge_id))
            return
        yield from self.endpoint.send_records(
            edge.dst_node, edge.edge_id, records, flags, self.record_bytes)
        edge.sent += len(records)
        edge.messages += 1
        self.stats.counters["messages"] += 1

    def _send_eos(self) -> Generator:
        """Close every out edge (even ones that never carried a record)."""
        for group in self.out_groups:
            for edge in group.edges:
                yield from self._send(edge, [], EOS_FLAG)

    def _finish(self) -> Generator:
        yield from self._send_eos()
        self.stage_stats.done_ns = self.env.now
        obs = self.env.obs
        if obs is not None:
            obs.record(self._done_site, self.env.now, self.spec.name,
                       self.stage_stats.counters["processed"])
        self.done.succeed()

    # -- the shared consume loop ------------------------------------------
    def run(self) -> Generator:
        """Stage process: consume the queue until every in-edge ended.

        Per-edge FIFO order means the final EOS can only be dequeued after
        every record of every edge, so the queue is empty on exit.
        """
        waiting = {edge.edge_id for edge in self.in_edges}
        queue = self.queue
        while waiting:
            item = yield queue.get()
            self.stats.note_queue_depth(self.stage_stats, queue.level)
            if type(item) is Eos:
                waiting.discard(item.edge_id)
                continue
            yield from self._consume(item)
        yield from self._finish()

    def _consume(self, record: tuple) -> Generator:
        raise NotImplementedError


class SourceRuntime(StageRuntime):
    """Arrival-process-driven record source (no input queue).

    Emission is *blocking*: when downstream backpressure stalls the send
    (credits exhausted, or a full same-node queue), the arrival loop
    itself falls behind schedule — offered load yields to the pipeline's
    actual capacity, which is the zero-drop guarantee.
    """

    def __init__(self, *args, arrivals, seed: int,
                 n_records: int, n_keys: int, **kwargs):
        super().__init__(*args, **kwargs)
        if n_records < 1:
            raise ValueError(f"n_records must be positive, got {n_records}")
        self.arrivals = arrivals
        self.seed = seed
        self.n_records = n_records
        self.n_keys = n_keys

    def run(self) -> Generator:
        env = self.env
        name = self.spec.name
        gaps = gap_stream(self.arrivals, self.seed, name)
        rng = client_rng(self.seed, f"{name}.records")
        t_next = env.now
        for _ in range(self.n_records):
            t_next += next(gaps)
            if env.now < t_next:
                yield t_next - env.now
            key = int(rng.integers(0, self.n_keys))
            value = int(rng.integers(1, 1_000))
            self.stats.note_emitted(self.stage_stats)
            yield from self._emit((key, value, 1, env.now))
        yield from self._finish()


class OperatorRuntime(StageRuntime):
    """map / filter / window stage."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        spec = self.spec
        self._map = (lookup(MAP_OPS, spec.op, "map op")
                     if spec.kind == "map" else None)
        self._pred = (lookup(FILTER_OPS, spec.op, "filter predicate")
                      if spec.kind == "filter" else None)
        self._window = (WindowState(spec.window_ns, spec.slide_ns, spec.op)
                        if spec.kind == "window" else None)

    def _consume(self, record: tuple) -> Generator:
        counters = self.stage_stats.counters
        counters["received"] += 1
        if self.spec.work_ns:
            yield from self.node.cpu.compute(self.spec.work_ns)
        key, value, count, ts = record
        if self._map is not None:
            key, value = self._map(key, value)
            counters["processed"] += 1
            yield from self._emit((key, value, count, ts))
            return
        if self._pred is not None:
            if self._pred(key, value):
                counters["processed"] += 1
                yield from self._emit(record)
            else:
                self.stats.note_filtered(self.stage_stats, count)
            return
        closed = self._window.add(key, value, count, ts, self.env.now)
        counters["processed"] += 1
        if closed:
            yield from self._flush(closed)

    def _flush(self, aggregates: list) -> Generator:
        obs = self.env.obs
        t0 = self.env.now
        for aggregate in aggregates:
            yield from self._emit(aggregate)
        if obs is not None:
            obs.record(self._flush_site, t0, self.spec.name, len(aggregates))

    def _finish(self) -> Generator:
        if self._window is not None:
            remaining = self._window.final_flush()
            if remaining:
                yield from self._flush(remaining)
        yield from super()._finish()


class SinkRuntime(StageRuntime):
    """Terminal stage: records die here; latency is sampled on arrival."""

    def _consume(self, record: tuple) -> Generator:
        if self.spec.work_ns:
            yield from self.node.cpu.compute(self.spec.work_ns)
        _key, _value, count, ts = record
        self.stats.note_delivered(self.stage_stats, self.env.now - ts, count)
        return
        yield  # pragma: no cover - generator marker


class NodeRuntime:
    """Everything one node hosts: endpoint, stages, pump, attribution."""

    def __init__(self, node: "Node", endpoint: DataflowEndpoint,
                 stats: PipelineStats,
                 extract_budget: Optional[int] = None):
        self.node = node
        self.env = node.env
        self.endpoint = endpoint
        self.stats = stats
        self.extract_budget = extract_budget
        self.stages: list[StageRuntime] = []
        #: edge_id -> EdgeRuntime for edges terminating on this node.
        self.in_edges: dict[int, EdgeRuntime] = {}
        self._stage_by_process: dict = {}
        node.fm.on_credit_stall = self._on_credit_stall

    def _on_credit_stall(self, dest: int, stall_ns: int) -> None:
        stage_stats = self._stage_by_process.get(self.env.active_process)
        if stage_stats is not None:
            self.stats.note_credit_stall(stage_stats, stall_ns)

    def spawn(self) -> None:
        """Start every local stage process (and the pump when any local
        stage is fed from another node)."""
        node_id = self.node.node_id
        for stage in self.stages:
            process = self.env.process(
                stage.run(), name=f"dataflow.{stage.spec.name}@{node_id}")
            self._stage_by_process[process] = stage.stage_stats
        if any(not edge.local for edge in self.in_edges.values()):
            self.env.process(self._pump(), name=f"dataflow.pump@{node_id}")

    def _pump(self) -> Generator:
        """Inbox -> lanes -> bounded stage queues -> extract -> idle-wait.

        The blocking ``yield queue.put(...)`` is the whole backpressure
        mechanism: while it blocks, this process is not extracting, the
        receive region fills, credits are withheld, senders stall.

        Invariants: every parsed record sits in exactly one place (lane or
        queue) until consumed — zero drops; extraction stops once any lane
        reaches its bound, so node-side buffering stays bounded at
        (queue + lane) per stage and the FM credit chain still carries
        backpressure to the senders.
        """
        fm = self.endpoint.fm
        inbox = self.endpoint.inbox
        nic = self.node.nic
        edges = self.in_edges
        lanes = {edge.dst: deque() for edge in edges.values()}
        n = len(lanes)
        gates = [(stage, lane, self._lane_bound(stage, shared=n > 1))
                 for stage, lane in lanes.items()]
        rr = -1             # passes made: the round-robin start advances
        leftovers = False   # on every one; a lane kept what found no room
        while True:
            rr += 1
            if inbox or leftovers:
                while inbox:
                    edge_id, records, flags = inbox.popleft()
                    edge = edges[edge_id]
                    lane = lanes[edge.dst]
                    for record in records:
                        lane.append((edge, record))
                    if flags & EOS_FLAG:
                        lane.append((edge, Eos(edge_id)))
                # Round-robin delivery: each stage drains its lane while its
                # queue has room; a full queue parks only its own lane.
                for i in range(n):
                    stage, lane, _bound = gates[(rr + i) % n]
                    while lane and not stage.queue.is_full:
                        edge, item = lane.popleft()
                        yield stage.queue.put(item)
                        self._note_delivered(stage, edge, item)
                leftovers = any(lanes.values())
                # Extraction gate: a lane at its bound marks the bottleneck
                # stage — park in a blocking put on it (the backpressure
                # chain re-engages here) instead of staging more.
                at_bound = False
                for stage, lane, bound in gates:
                    if len(lane) >= bound:
                        edge, item = lane.popleft()
                        yield stage.queue.put(item)
                        self._note_delivered(stage, edge, item)
                        at_bound = True
                        break
                if at_bound:
                    continue
            yield from fm.extract(self.extract_budget)
            if not inbox and nic.recv_region.level == 0:
                yield from fm.idle_wait()

    @staticmethod
    def _lane_bound(stage: "StageRuntime", shared: bool) -> int:
        """Records a lane may stage before the pump stops extracting: one
        queue's worth when lanes share the pump; a lone lane has nobody to
        keep flowing for, so it stages only the record it is delivering."""
        return max(1, stage.queue.capacity) if shared else 1

    def _note_delivered(self, stage: "StageRuntime", edge: EdgeRuntime,
                        item) -> None:
        if type(item) is not Eos:
            edge.received += 1
            self.stats.note_queue_depth(stage.stage_stats, stage.queue.level)

    def done_events(self) -> list:
        return [stage.done for stage in self.stages]
