"""Request/response RPC over raw Fast Messages (1.x or 2.x).

The service pattern the paper's §5 measurements imply but never spell out:
a server node runs a bounded request queue and a pool of worker loops; each
client issues fixed-size requests under an arrival process
(:mod:`repro.workloads.arrivals`) and every request gets exactly one
response — ``RPC_OK`` after service, or ``RPC_SHED`` / ``RPC_EXPIRED``
when the overload policy dropped it.

The two FM generations plug in behind one :class:`RpcEndpoint`, and their
interface costs differ exactly as §3/§4 describe:

* **FM 1.x** sends must be contiguous, so each request/response charges an
  assembly copy (header + payload into one buffer) before ``FM_send``; and
  handlers run *inside* extract, serialising delivery.
* **FM 2.x** gathers header and payload with ``send_piece`` (no assembly
  copy) and scatters on receive; handlers interleave as processes.

Overload policy (the server's explicit backpressure story):

* ``queue`` — the pump stops extracting while the bounded queue is full.
  The receive region then fills, credit returns stop, and senders stall in
  ``acquire_credit``: *FM's own flow control carries the backpressure all
  the way to the client*, which is the paper's reliable-by-construction
  alternative to dropping.
* ``shed`` — the pump always extracts; a request arriving to a full queue
  is answered immediately with ``RPC_SHED``.  Latency of accepted requests
  stays bounded at the cost of goodput.
* ``deadline`` — ``queue`` backpressure, plus workers discard requests
  whose deadline passed while queued (``RPC_EXPIRED``) instead of doing
  dead work.

Idle paths never spin on a fixed backoff: every pump here is
:func:`repro.core.progress.pump`, which sleeps in :meth:`~repro.core
.common.FmEndpoint.idle_wait` (capped by ``IDLE_WAIT_CAP_NS``), the same
event-based wakeup every layer above FM uses.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Iterator, Optional

from repro.hardware.memory import Buffer
from repro.hardware.packet import Site

from repro.core.fm1.api import FM1
from repro.core.progress import pump

from repro.simkernel.store import Store

from repro.workloads.arrivals import ArrivalSpec, ClosedLoop, gap_stream
from repro.workloads.stats import WorkloadStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.obs.span import TraceContext
    from repro.workloads.sharding import Balancer, ShardDirectory

#: Response status codes.
RPC_OK = 0
RPC_SHED = 1
RPC_EXPIRED = 2

#: Human-readable span attribute per status code.
STATUS_NAMES = {RPC_OK: "ok", RPC_SHED: "shed", RPC_EXPIRED: "expired"}

#: Request wire header: req_id, absolute deadline (ns, 0 = none),
#: service demand (ns), payload length.
REQ_HEADER = struct.Struct("<iqqi")
#: Response wire header: req_id, status, payload length.
RESP_HEADER = struct.Struct("<iii")

VALID_POLICIES = ("queue", "shed", "deadline")


@dataclass
class Request:
    """One request as the server sees it (parsed off the wire).

    ``trace`` is the server-side hop context (derived from the client's
    request context when the run is observed): the server binds it while
    serving so its queue/compute/response spans parent to the hop span,
    which in turn parents to the client's root ``rpc.request`` span
    (``trace_parent``).  Both are ``None`` when unobserved or untraced.
    """

    req_id: int
    src: int
    deadline_ns: int
    work_ns: int
    payload_len: int
    enq_ns: int
    trace: Optional["TraceContext"] = None
    trace_parent: Optional["TraceContext"] = None


class RpcEndpoint:
    """One node's RPC attachment point over its FM endpoint.

    Registers the request and response handlers (in that order — handler
    ids index the receiver's table, so every participating node must build
    its endpoint before any other handler registration, SPMD style) and
    hides the FM 1.x / 2.x asymmetry behind ``send_request`` /
    ``send_response``.
    """

    def __init__(self, node: "Node", stats: WorkloadStats):
        if node.fm is None:
            raise RuntimeError(f"node {node.node_id} has no FM endpoint")
        self.node = node
        self.env = node.env
        self.fm = node.fm
        self.stats = stats
        self.is_fm1 = isinstance(node.fm, FM1)
        track = f"node{node.node_id}/rpc"
        self._request_site = Site("app", "rpc.request", track,
                                  "req_id", "status", "shard", "key")
        self._serve_site = Site("app", "rpc.serve", track, "req_id", "src", "status")
        #: Client side: req_id -> (intended arrival ns, completion event,
        #: shard index, minted trace context or None when unobserved,
        #: actual send time ns, routing key).  Shard and key are None only
        #: for the supervisor's probes.
        self.pending: dict[
            int, tuple[int, object, Optional[int],
                       Optional["TraceContext"], int, Optional[int]]] = {}
        #: Server side: requests parsed by the handler, awaiting the pump.
        self.inbox: deque[Request] = deque()
        #: Responses that arrived after the client abandoned (or failed
        #: over) the request.
        self.stale_responses = 0
        #: Optional ``(req_id, shard)`` callback fired exactly once per
        #: request when it resolves (response landed, client abandoned, or
        #: the request failed over to another replica) — how a load
        #: balancer keeps its in-flight view honest.  Set it through
        #: :meth:`set_on_resolved`: the endpoint carries exactly one
        #: in-flight view, and silently replacing it would corrupt the
        #: previous owner's accounting.
        self.on_resolved = None
        self._next_req_id = 0
        if self.is_fm1:
            self.request_handler = self.fm.register_handler(self._request_fm1)
            self.response_handler = self.fm.register_handler(self._response_fm1)
        else:
            self.request_handler = self.fm.register_handler(self._request_fm2)
            self.response_handler = self.fm.register_handler(self._response_fm2)

    def set_on_resolved(self, callback) -> None:
        """Install the exactly-once resolution callback (fail-loud).

        An endpoint has one in-flight view; a second owner (another
        balancer, a prober) silently replacing the first would leak the
        original's issued credits forever.  Raise instead — sharing an
        endpoint between independent request issuers is a bug.
        """
        if self.on_resolved is not None:
            raise RuntimeError(
                f"node {self.node.node_id}'s RpcEndpoint already has an "
                "on_resolved callback; a second issuer on the same endpoint "
                "would corrupt the first one's in-flight accounting")
        self.on_resolved = callback

    # -- send side ---------------------------------------------------------
    def send_request(self, server: int, work_ns: int, payload_len: int,
                     deadline_ns: int = 0,
                     t_intended: Optional[int] = None,
                     shard: Optional[int] = None,
                     key: Optional[int] = None,
                     retry: bool = False) -> Generator:
        """Issue one request; returns ``(req_id, completion event)``.

        The event fires with ``(status, response payload len)`` when the
        response handler runs.  Latency is accounted against
        ``t_intended`` (the arrival process's scheduled issue time), so
        open-loop overload shows up as unbounded queueing delay rather
        than a slowed clock.  ``shard`` tags the request for per-shard
        accounting and the ``on_resolved`` balancer callback; ``key`` is
        the balancer's routing key, recorded on the trace for attribution.
        ``retry=True`` marks a failover re-issue of an already-counted
        logical request: it records ``retried`` instead of ``sent``, so
        ``completed + drops == sent`` stays an invariant across retries.

        When the run is observed this is also where each request's trace
        is minted: the context is bound around the FM send (so every span
        down to the NIC joins the tree), rides the packets to the server,
        and the root ``rpc.request`` span is recorded when the request
        resolves (response landed or client abandoned).
        """
        req_id = self._next_req_id
        self._next_req_id += 1
        event = self.env.event()
        obs = self.env.obs
        ctx = obs.mint_trace() if obs is not None else None
        t_sent = self.env.now
        self.pending[req_id] = (
            t_sent if t_intended is None else t_intended, event, shard,
            ctx, t_sent, key)
        header = REQ_HEADER.pack(req_id, deadline_ns, work_ns, payload_len)
        if ctx is not None:
            prev = obs.bind(ctx)
            try:
                yield from self._send(server, self.request_handler, header,
                                      payload_len)
            finally:
                obs.bind(prev)
        else:
            yield from self._send(server, self.request_handler, header,
                                  payload_len)
        if retry:
            self.stats.note_retried(shard=shard)
        else:
            self.stats.note_sent(REQ_HEADER.size + payload_len, shard=shard)
        return req_id, event

    def await_response(self, event, deadline_ns: int) -> Generator:
        """Wait for a request's ``event`` no later than ``deadline_ns``;
        the caller reads ``event.triggered`` to tell which came first."""
        if not event.triggered:
            remaining = deadline_ns - self.env.now
            if remaining > 0:
                yield self.env.first_of(self.env.event(), event, remaining)

    def send_response(self, dest: int, req_id: int, status: int,
                      payload_len: int) -> Generator:
        """Send a response for ``req_id`` back to ``dest`` with ``status``."""
        header = RESP_HEADER.pack(req_id, status, payload_len)
        return self._send(dest, self.response_handler, header, payload_len)

    def _send(self, dest: int, handler_id: int, header: bytes,
              payload_len: int) -> Generator:
        if self.is_fm1:
            return self._send_fm1(dest, handler_id, header, payload_len)
        # FM 2.x: gather the pieces straight through the API — no copy.
        pieces = [header]
        if payload_len:
            pieces.append(bytes(payload_len))
        return self.fm.send_gather(dest, handler_id, pieces)

    def _send_fm1(self, dest: int, handler_id: int, header: bytes,
                  payload_len: int) -> Generator:
        # FM 1.x interface cost: the message must be contiguous, so
        # header + payload are assembled into one buffer first (§3.2).
        total = len(header) + payload_len
        message = Buffer(total, name="rpc.assembled")
        yield from self.fm.cpu.deposit(header + bytes(payload_len), message,
                                       label="rpc.send_assembly")
        yield from self.fm.send(dest, handler_id, message, total)

    # -- receive side -------------------------------------------------------
    def abandon(self, req_id: int) -> None:
        """Client gave up on ``req_id``; a late response becomes stale."""
        entry = self.pending.pop(req_id, None)
        if entry is not None:
            self.stats.note_dropped("abandoned", shard=entry[2])
            self._resolved(req_id, "abandoned", entry)

    def fail_over(self, req_id: int) -> bool:
        """Give up on ``req_id`` *on this replica* ahead of a retry.

        Unlike :meth:`abandon`, the logical request is not lost — it is
        about to be re-issued to another replica — so nothing is counted
        as dropped; only a ``failover`` is recorded.  The ``on_resolved``
        callback still fires exactly once for this attempt (returning the
        balancer's in-flight credit on the failed shard), and a late
        response from the failed replica lands as a stale duplicate.
        Returns ``False`` when ``req_id`` already resolved.
        """
        entry = self.pending.pop(req_id, None)
        if entry is None:
            return False
        self.stats.note_failover(shard=entry[2])
        self._resolved(req_id, "failover", entry)
        return True

    def _resolved(self, req_id: int, status: str, entry: tuple) -> None:
        """Close a resolved request (its ``pending`` entry popped, its
        stats counted): record the root ``rpc.request`` span, whose
        pre-allocated span id closes the tree, then fire ``on_resolved``."""
        _t, _event, shard, ctx, t_sent, key = entry
        obs = self.env.obs
        if obs is not None and ctx is not None:
            obs.record(self._request_site, t_sent, req_id, status, shard, key,
                       ctx=ctx, span_id=ctx.span_id)
        if self.on_resolved is not None:
            self.on_resolved(req_id, shard)

    # -- handlers (SPMD-registered on every participating node) ------------------
    def _hop_contexts(self) -> tuple[Optional["TraceContext"],
                                     Optional["TraceContext"]]:
        """(server hop context, client root context) for the request being
        parsed — the handler runs under the packet's context (inline bind
        for FM1, process seeding for FM2), so ``current()`` is the root."""
        obs = self.env.obs
        if obs is None:
            return None, None
        parent = obs.current()
        if parent is None:
            return None, None
        return obs.derive(parent), parent

    def _request_fm1(self, fm, src, buffer, nbytes) -> Generator:
        yield from fm.cpu.call()
        req_id, deadline, work, plen = REQ_HEADER.unpack_from(
            buffer.read(0, REQ_HEADER.size))
        trace, trace_parent = self._hop_contexts()
        self.inbox.append(Request(req_id, src, deadline, work, plen,
                                  self.env.now, trace, trace_parent))

    def _request_fm2(self, fm, stream, src) -> Generator:
        head = yield from stream.receive_bytes(REQ_HEADER.size)
        req_id, deadline, work, plen = REQ_HEADER.unpack(head)
        if plen:
            yield from stream.receive_bytes(plen)
        trace, trace_parent = self._hop_contexts()
        self.inbox.append(Request(req_id, src, deadline, work, plen,
                                  self.env.now, trace, trace_parent))

    def _response_fm1(self, fm, src, buffer, nbytes) -> Generator:
        yield from fm.cpu.call()
        req_id, status, plen = RESP_HEADER.unpack_from(
            buffer.read(0, RESP_HEADER.size))
        self._complete(req_id, status, plen)

    def _response_fm2(self, fm, stream, src) -> Generator:
        head = yield from stream.receive_bytes(RESP_HEADER.size)
        req_id, status, plen = RESP_HEADER.unpack(head)
        if plen:
            yield from stream.receive_bytes(plen)
        self._complete(req_id, status, plen)

    def _complete(self, req_id: int, status: int, plen: int) -> None:
        entry = self.pending.pop(req_id, None)
        if entry is None:
            self.stale_responses += 1
            return
        t_intended, event, shard, _ctx, _t_sent, _key = entry
        if status == RPC_OK:
            self.stats.note_completed(self.env.now - t_intended,
                                      RESP_HEADER.size + plen, shard=shard)
        elif status == RPC_SHED:
            self.stats.note_dropped("shed", shard=shard)
        else:
            self.stats.note_dropped("expired", shard=shard)
        self._resolved(req_id, STATUS_NAMES.get(status, "unknown"), entry)
        event.succeed((status, plen))

    def __repr__(self) -> str:
        return (f"<RpcEndpoint node={self.node.node_id} "
                f"fm={'1' if self.is_fm1 else '2'} "
                f"pending={len(self.pending)} inbox={len(self.inbox)}>")


class RpcServer:
    """Bounded-queue, multi-worker RPC service on one node.

    ``start()`` spawns the pump and worker processes directly on the
    environment (like NIC firmware — they run until the simulation stops,
    so client programs define run termination).
    """

    def __init__(self, endpoint: RpcEndpoint, stats: WorkloadStats, *,
                 workers: int = 2, queue_capacity: int = 16,
                 policy: str = "queue", resp_bytes: int = 64,
                 shard: int = 0):
        if policy not in VALID_POLICIES:
            raise ValueError(f"policy must be one of {VALID_POLICIES}, "
                             f"got {policy!r}")
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be positive, got {queue_capacity}")
        self.endpoint = endpoint
        self.env = endpoint.env
        self.node = endpoint.node
        self.stats = stats
        self.workers = workers
        self.policy = policy
        self.resp_bytes = resp_bytes
        #: This server's shard index (labels the queue-side stats;
        #: client-side accounting tags itself).
        self.shard = shard
        self.queue: Store = Store(self.env, capacity=queue_capacity,
                                  name=f"rpc.queue@{self.node.node_id}")
        self.served = 0
        self._started = False

    def start(self) -> None:
        """Spawn the extract pump and worker processes (idempotence-guarded)."""
        if self._started:
            raise RuntimeError("server started twice")
        self._started = True
        node_id = self.node.node_id
        self.env.process(pump(self.endpoint.fm, self.endpoint.inbox,
                              self._deliver),
                         name=f"rpc.pump@{node_id}")
        for i in range(self.workers):
            self.env.process(self._worker(), name=f"rpc.worker{i}@{node_id}")

    def _respond(self, request: Request, status: int,
                 payload_len: int) -> Generator:
        """Send the response under the request's trace context and close
        the server-side hop span.

        The hop (``rpc.serve``) span covers arrival-at-server to
        response-sent — queueing, service, and the response send — and
        parents to the client's root span, so cross-node waterfalls show
        where the server spent the request's time.
        """
        endpoint = self.endpoint
        obs = self.env.obs
        if obs is None or request.trace is None:
            yield from endpoint.send_response(
                request.src, request.req_id, status, payload_len)
            return
        prev = obs.bind(request.trace)
        try:
            yield from endpoint.send_response(
                request.src, request.req_id, status, payload_len)
        finally:
            obs.bind(prev)
        obs.record(endpoint._serve_site, request.enq_ns, request.req_id,
                   request.src, STATUS_NAMES.get(status, "unknown"),
                   ctx=request.trace_parent, span_id=request.trace.span_id)

    def _deliver(self, request: Request) -> Generator:
        """Shed or enqueue one extracted request under the policy."""
        if self.policy == "shed" and self.queue.is_full:
            # Dropped requests are counted once, client-side, when the
            # RPC_SHED response lands (stats are shared).
            yield from self._respond(request, RPC_SHED, 0)
            return
        # Blocks while the queue is full ("queue"/"deadline"): no
        # extracting happens meanwhile, the receive region fills, and FM
        # flow control stalls the senders.
        yield self.queue.put(request)
        self.stats.note_queue_depth(self.queue.level, shard=self.shard)

    def _worker(self) -> Generator:
        """Dequeue, serve (charging the request's demand), respond."""
        cpu = self.node.cpu
        while True:
            request: Request = yield self.queue.get()
            self.stats.note_queue_depth(self.queue.level, shard=self.shard)
            self.stats.note_queue_wait(self.env.now - request.enq_ns,
                                       shard=self.shard)
            if (self.policy == "deadline" and request.deadline_ns
                    and self.env.now > request.deadline_ns):
                yield from self._respond(request, RPC_EXPIRED, 0)
                continue
            if request.work_ns:
                yield from cpu.compute(request.work_ns)
            yield from self._respond(request, RPC_OK, self.resp_bytes)
            self.served += 1

    def __repr__(self) -> str:
        return (f"<RpcServer node={self.node.node_id} policy={self.policy} "
                f"workers={self.workers} served={self.served}>")


class RpcClient:
    """One client node issuing requests under an arrival spec.

    :meth:`run` is the node program for :meth:`Cluster.run`: it issues
    ``n_requests`` and returns once every one is resolved (responded or
    abandoned).  A companion pump process (:func:`repro.core.progress
    .pump`, with no inbox) extracts responses concurrently.
    Each request goes to the shard of ``service`` that the balancer picks
    for the next key (a single server is a one-shard service) and stays
    in flight until ``on_resolved`` returns its credit, exactly once.
    """

    def __init__(self, endpoint: RpcEndpoint, service: "ShardDirectory",
                 balancer: "Balancer", keys: Iterator[int], *,
                 arrivals: ArrivalSpec, seed: int, n_requests: int,
                 req_bytes: int = 64, work_ns: int = 0,
                 deadline_ns: int = 0,
                 abandon_after_ns: Optional[int] = None,
                 name: str = "client"):
        if n_requests < 1:
            raise ValueError(f"n_requests must be positive, got {n_requests}")
        if balancer.n_shards != service.n_shards:
            raise ValueError(
                f"balancer covers {balancer.n_shards} shards, service has "
                f"{service.n_shards}")
        self.endpoint = endpoint
        self.env = endpoint.env
        self.service = service
        self.balancer = balancer
        self.arrivals = arrivals
        self.n_requests = n_requests
        self.req_bytes = req_bytes
        self.work_ns = work_ns
        self.deadline_ns = deadline_ns
        self.abandon_after_ns = abandon_after_ns
        self.name = name
        self._keys = keys
        self._gaps = gap_stream(arrivals, seed, name)
        self._sending = True
        endpoint.set_on_resolved(self._on_resolved)

    # -- the node program ---------------------------------------------------
    def run(self) -> Generator:
        """Node program: spawn the extract pump and drive the arrival loop."""
        endpoint = self.endpoint
        self.env.process(
            pump(endpoint.fm, (),
                 live=lambda: self._sending or endpoint.pending),
            name=f"rpc.pump@{endpoint.node.node_id}")
        if isinstance(self.arrivals, ClosedLoop):
            yield from self._closed_loop()
        else:
            yield from self._open_loop()

    def _issue(self, deadline_ns: int,
               t_intended: Optional[int] = None) -> Generator:
        """Send one request to the shard the balancer picks for the next
        key; returns ``(req_id, event)``."""
        key = next(self._keys)
        return self._send_to(self.balancer.pick(key), key, deadline_ns,
                             t_intended)

    def _send_to(self, shard: int, key: int, deadline_ns: int,
                 t_intended: Optional[int], retry: bool = False
                 ) -> Generator:
        """Count a request in flight on ``shard`` and send it there;
        returns ``(req_id, event)``."""
        self.balancer.note_issued(shard)
        return self.endpoint.send_request(
            self.service.shard_nodes[shard], self.work_ns, self.req_bytes,
            deadline_ns=deadline_ns, t_intended=t_intended, shard=shard,
            key=key, retry=retry)

    def _on_resolved(self, req_id: int, shard: int) -> None:
        self.balancer.note_resolved(shard)

    def _open_loop(self) -> Generator:
        """Issue on schedule regardless of completions, then drain."""
        env = self.env
        outstanding = []
        t_next = env.now
        for _ in range(self.n_requests):
            t_next += next(self._gaps)
            if env.now < t_next:
                yield t_next - env.now
            deadline = t_next + self.deadline_ns if self.deadline_ns else 0
            t_sent = env.now
            req_id, event = yield from self._issue(deadline, t_intended=t_next)
            outstanding.append((req_id, event, t_sent))
        self._sending = False
        for req_id, event, t_sent in outstanding:
            yield from self._await(req_id, event, t_sent)

    def _closed_loop(self) -> Generator:
        """Send, wait for the response, think, repeat."""
        env = self.env
        for _ in range(self.n_requests):
            deadline = env.now + self.deadline_ns if self.deadline_ns else 0
            t_sent = env.now
            req_id, event = yield from self._issue(deadline)
            yield from self._await(req_id, event, t_sent)
            think = next(self._gaps)
            if think:
                yield think
        self._sending = False

    def _await(self, req_id: int, event, t_sent: int) -> Generator:
        """Wait for ``req_id`` to resolve, abandoning at its own deadline.

        The abandon budget is anchored at the request's *send* time, not
        at the moment the drain loop reaches it: a request late in the
        outstanding list whose ``t_sent + abandon_after_ns`` already
        passed is abandoned immediately, instead of being granted a fresh
        full budget per drain position (under overload the old behaviour
        effectively never abandoned).
        """
        if event.triggered:
            return
        if self.abandon_after_ns is None:
            yield event
            return
        yield from self.endpoint.await_response(
            event, t_sent + self.abandon_after_ns)
        if not event.triggered:
            self.endpoint.abandon(req_id)

    def __repr__(self) -> str:
        return (f"<RpcClient {self.name!r} node={self.endpoint.node.node_id} "
                f"balancer={self.balancer.name} n={self.n_requests}>")
