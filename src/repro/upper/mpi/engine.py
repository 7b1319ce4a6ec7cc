"""The per-rank MPI engine: matching, queues, protocol, progress.

One :class:`MpiEngine` lives on each node, wrapping its FM endpoint through
a *binding* (FM 1.x or FM 2.x, see the sibling modules).  The engine owns
the two canonical MPI queues:

* **posted receives** — receives waiting for a matching message;
* **unexpected messages** — messages that arrived before their receive.

Matching is on ``(context, source, tag)`` with ``ANY_SOURCE`` / ``ANY_TAG``
wildcards, FIFO within equal matches (MPI's non-overtaking rule — which FM's
in-order delivery makes cheap to provide, exactly the paper's §3.1 point).

Protocol: messages up to ``costs.eager_threshold`` go **eager** (envelope +
payload in one FM message); larger ones use **rendezvous** (RTS envelope,
CTS reply once a receive is matched, then the payload), which bounds
unexpected-data buffering.

Progress is polling, on the shared :class:`~repro.core.progress.Progress`
engine: ``progress()`` runs one bounded ``FM_extract`` pass and flushes
deferred control replies (CTS, then RDMA pulls).  The engine is also the FM
endpoint's ``stall_hook``, so a sender stalled on flow-control credits
keeps the receive side progressing (applied to both bindings, since MPICH
on FM 1.x needed the same discipline), and its ``wait_until`` is every
blocking call here: idle passes sleep on
:meth:`~repro.core.common.FmEndpoint.idle_wait` (capped by
``repro.core.common.IDLE_WAIT_CAP_NS``) and a call fails loudly once *sim
time* without progress exceeds ``FmParams.stall_limit_ns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.hardware.memory import Buffer

from repro.core.progress import Progress

from repro.upper.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    KIND_CTS,
    KIND_EAGER,
    KIND_RDMA_FIN,
    KIND_RENDEZVOUS_DATA,
    KIND_RTS,
    KIND_RTS_RDMA,
    INTERNAL_TAG_BASE,
)
from repro.upper.mpi.envelope import ENVELOPE_BYTES, Envelope
from repro.upper.mpi.status import MpiError, Request, Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node


@dataclass(frozen=True)
class MpiCosts:
    """Software cost model of the MPI layer itself (per binding)."""

    send_overhead_ns: int       # MPI_Send path above the FM interface
    recv_overhead_ns: int       # MPI_Recv path above the FM interface
    match_ns: int               # envelope parse + queue search per message
    header_build_ns: int        # building the 24-byte envelope
    pool_slots: int             # unexpected-pool size before spill copies
    eager_threshold: int        # bytes; above this use rendezvous
    progress_budget: Optional[int]  # FM_extract(bytes) budget; None = drain all
    completion_ns: int = 0      # request completion processing in wait()


@dataclass
class PostedRecv:
    context: int
    source: int                 # rank or ANY_SOURCE
    tag: int                    # tag or ANY_TAG
    buf: Buffer                 # user destination buffer
    request: Request

    def matches(self, env: Envelope) -> bool:
        return (
            self.context == env.context
            and self.source in (ANY_SOURCE, env.src_rank)
            and self.tag in (ANY_TAG, env.tag)
        )


@dataclass
class UnexpectedMsg:
    envelope: Envelope
    data_buf: Optional[Buffer]   # eager payload (None for RTS)
    spilled: bool = False


class MpiEngine:
    """MPI point-to-point machinery for one rank."""

    def __init__(self, node: "Node", costs: MpiCosts, n_ranks: int, binding_cls):
        self.node = node
        self.env = node.env
        self.fm = node.fm
        self.cpu = node.cpu
        self.costs = costs
        self.n_ranks = n_ranks
        self.rank = node.node_id
        self._track = f"node{node.node_id}/mpi"
        self.posted: list[PostedRecv] = []
        self.unexpected: list[UnexpectedMsg] = []
        self._serials: dict[int, int] = {}               # dest -> next serial
        self._cts_received: set[tuple[int, int]] = set()  # (src, serial)
        self._cts_outbox: list[tuple[int, Envelope]] = []  # deferred CTS sends
        self._rdv_posted: dict[tuple[int, int], PostedRecv] = {}  # (src, serial)
        # RDMA rendezvous state (only used by the opt-in RDMA binding;
        # inert — never populated, never yielded on — otherwise).
        self._fin_received: set[tuple[int, int]] = set()  # (dest, serial)
        self._rdma_rts: dict[tuple[int, int], int] = {}   # (src, serial) -> rkey
        self._pull_jobs: list[tuple[PostedRecv, Envelope, int]] = []
        self.binding = binding_cls(self)
        self._progress = Progress(
            self.fm, costs.progress_budget, self._flush,
            lambda what: MpiError(f"rank {self.rank}: {what}"))
        self.fm.stall_hook = self._progress.on_credit_stall
        # Statistics.
        self.stats_unexpected = 0
        self.stats_spills = 0
        self.stats_rendezvous = 0
        self.stats_rdma_rendezvous = 0
        self.stats_rdma_pulls = 0

    # -- sending --------------------------------------------------------------
    def next_serial(self, dest: int) -> int:
        serial = self._serials.get(dest, 0)
        self._serials[dest] = serial + 1
        return serial

    def send(self, dest: int, tag: int, data: bytes, context: int = 0) -> Generator:
        """Blocking (eager- or rendezvous-protocol) send of ``data``."""
        self._check_peer(dest, tag)
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.execute(self.costs.send_overhead_ns
                                    + self.costs.header_build_ns)
        serial = self.next_serial(dest)
        if len(data) <= self.costs.eager_threshold:
            envelope = Envelope(context, self.rank, tag, len(data),
                                KIND_EAGER, serial)
            yield from self.binding.send_message(dest, envelope, data)
            if obs is not None:
                obs.span("mpi", "MPI_Send", t0,
                         track=self._track, dest=dest, tag=tag,
                         bytes=len(data), protocol="eager")
            return
        # Rendezvous: RTS, wait for CTS, then the payload.
        self.stats_rendezvous += 1
        if getattr(self.binding, "rdma", None) is not None:
            yield from self._send_rendezvous_rdma(dest, tag, data,
                                                  context, serial)
            if obs is not None:
                obs.span("mpi", "MPI_Send", t0,
                         track=self._track, dest=dest, tag=tag,
                         bytes=len(data), protocol="rendezvous-rdma")
            return
        rts = Envelope(context, self.rank, tag, len(data), KIND_RTS, serial)
        yield from self.binding.send_message(dest, rts, b"")
        key = (dest, serial)
        yield from self._progress.wait_until(
            lambda: key in self._cts_received,
            f"no CTS from rank {dest} (serial {serial}) — "
            "receiver never posted?")
        self._cts_received.remove(key)
        data_env = Envelope(context, self.rank, tag, len(data),
                            KIND_RENDEZVOUS_DATA, serial)
        yield from self.binding.send_message(dest, data_env, data)
        if obs is not None:
            obs.span("mpi", "MPI_Send", t0, track=self._track,
                     dest=dest, tag=tag, bytes=len(data),
                     protocol="rendezvous")

    def _send_rendezvous_rdma(self, dest: int, tag: int, data: bytes,
                              context: int, serial: int) -> Generator:
        """Rendezvous over one-sided RDMA read (the opt-in binding):
        register the payload, advertise it (the RTS_RDMA envelope carries
        an rkey descriptor), and let the receiver *pull* — the sender
        transmits zero data packets.  The FIN reply bounds the region's
        lifetime so the source buffer can be deregistered."""
        self.stats_rdma_rendezvous += 1
        source = Buffer.from_bytes(data, name=f"mpi.rdma_src[{self.rank}]")
        rkey = yield from self.binding.rdma.register(source)
        rts = Envelope(context, self.rank, tag, len(data),
                       KIND_RTS_RDMA, serial)
        yield from self.binding.send_message(dest, rts,
                                             self.binding.pack_desc(rkey))
        key = (dest, serial)
        yield from self._progress.wait_until(
            lambda: key in self._fin_received,
            f"no RDMA FIN from rank {dest} (serial {serial}) — "
            "receiver never pulled?")
        self._fin_received.remove(key)
        yield from self.binding.rdma.deregister(rkey)

    def send_pieces(self, dest: int, tag: int, pieces: list[bytes],
                    context: int = 0) -> Generator:
        """Eager send of a multi-piece payload (derived-datatype style).

        Over FM 2.x each piece gathers straight from its source; over
        FM 1.x the binding must pack first (a metered per-byte copy).  The
        receiver sees one contiguous message either way.
        """
        self._check_peer(dest, tag)
        total = sum(len(piece) for piece in pieces)
        if total > self.costs.eager_threshold:
            raise MpiError(
                f"send_pieces of {total} bytes exceeds the eager threshold "
                f"({self.costs.eager_threshold}); pack and use send()"
            )
        yield from self.cpu.execute(self.costs.send_overhead_ns
                                    + self.costs.header_build_ns)
        serial = self.next_serial(dest)
        envelope = Envelope(context, self.rank, tag, total, KIND_EAGER, serial)
        yield from self.binding.send_message_pieces(dest, envelope, pieces)

    def isend(self, dest: int, tag: int, data: bytes, context: int = 0) -> Generator:
        """Nonblocking send.

        Simplification (documented): the send is performed inline before the
        request is returned — eager sends complete locally anyway once FM
        accepts the data, and rendezvous waits for the CTS.  The request is
        therefore already complete; it exists for API symmetry.
        """
        yield from self.send(dest, tag, data, context)
        request = Request("send")
        request.finish(Status(source=self.rank, tag=tag, count=len(data)))
        return request

    # -- receiving ------------------------------------------------------------------
    def irecv(self, source: int, tag: int, max_bytes: int,
              context: int = 0) -> Generator:
        """Post a receive; returns a :class:`Request` immediately."""
        if max_bytes < 0:
            raise MpiError(f"negative receive size {max_bytes}")
        yield from self.cpu.execute(self.costs.recv_overhead_ns)
        request = Request("recv")
        # Unexpected queue first (FIFO — preserves non-overtaking).
        for i, entry in enumerate(self.unexpected):
            posted_probe = PostedRecv(context, source, tag,
                                      Buffer(0), request)
            if posted_probe.matches(entry.envelope):
                del self.unexpected[i]
                yield from self._complete_from_unexpected(entry, request, max_bytes)
                return request
        posted = PostedRecv(context, source, tag,
                            Buffer(max_bytes, name=f"mpi.recv[{self.rank}]"),
                            request)
        self.posted.append(posted)
        return request

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             max_bytes: int = 1 << 20, context: int = 0) -> Generator:
        """Blocking receive; returns ``(data, Status)``."""
        obs = self.env.obs
        t0 = self.env.now
        request = yield from self.irecv(source, tag, max_bytes, context)
        yield from self.wait(request)
        if obs is not None:
            obs.span("mpi", "MPI_Recv", t0, track=self._track,
                     source=source, tag=tag,
                     bytes=request.status.count if request.status else 0)
        return request.data, request.status

    def wait(self, request: Request) -> Generator:
        """Progress until the request completes."""
        obs = self.env.obs
        t0 = self.env.now
        yield from self._progress.wait_until(
            lambda: request.complete,
            f"wait() made no progress on {request!r}")
        if self.costs.completion_ns:
            yield from self.cpu.execute(self.costs.completion_ns)
        if obs is not None:
            obs.span("mpi", "MPI_Wait", t0, track=self._track,
                     kind=request.kind,
                     bytes=request.status.count if request.status else 0)

    def waitall(self, requests: list[Request]) -> Generator:
        """Progress until every request completes."""
        for request in requests:
            yield from self.wait(request)

    def waitany(self, requests: list[Request]) -> Generator:
        """Progress until at least one request completes; returns its index."""
        if not requests:
            raise MpiError("waitany needs at least one request")
        yield from self._progress.wait_until(
            lambda: any(request.complete for request in requests),
            "waitany() made no progress")
        return next(index for index, request in enumerate(requests)
                    if request.complete)

    def waitsome(self, requests: list[Request]) -> Generator:
        """Progress until at least one completes; returns all complete indices."""
        first = yield from self.waitany(requests)
        indices = [index for index, request in enumerate(requests)
                   if request.complete]
        assert first in indices
        return indices

    def test(self, request: Request) -> Generator:
        """One progress pass; returns the request's completion flag."""
        yield from self.progress()
        return request.complete

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               context: int = 0) -> Generator:
        """Nonblocking probe of the unexpected queue (after one progress)."""
        yield from self.progress()
        probe = PostedRecv(context, source, tag, Buffer(0), Request("recv"))
        for entry in self.unexpected:
            if probe.matches(entry.envelope):
                e = entry.envelope
                return Status(source=e.src_rank, tag=e.tag, count=e.size)
        return None

    # -- progress ---------------------------------------------------------------------
    def progress(self) -> Generator:
        """One bounded extraction pass plus deferred control replies;
        returns True if anything happened."""
        return self._progress.progress()

    def _flush(self) -> Generator:
        flushed = yield from self._flush_cts()
        pulled = yield from self._run_pull_jobs()
        return flushed or pulled

    def _flush_cts(self) -> Generator:
        flushed = False
        while self._cts_outbox:
            dest, envelope = self._cts_outbox.pop(0)
            yield from self.binding.send_message(dest, envelope, b"")
            flushed = True
        return flushed

    def _run_pull_jobs(self) -> Generator:
        """Execute queued RDMA pulls (the receiver side of the opt-in
        rendezvous): a one-sided read straight into the posted buffer —
        the remote NIC serves it in firmware with no sender-host
        involvement — then a FIN so the sender can deregister."""
        ran = False
        while self._pull_jobs:
            posted, env, rkey = self._pull_jobs.pop(0)
            yield from self.binding.rdma.rdma_get(env.src_rank, rkey,
                                                  posted.buf, env.size)
            self.stats_rdma_pulls += 1
            fin = Envelope(env.context, self.rank, INTERNAL_TAG_BASE, 0,
                           KIND_RDMA_FIN, env.serial)
            yield from self.binding.send_message(env.src_rank, fin, b"")
            self.complete_posted(posted, env)
            ran = True
        return ran

    # -- arrival handling (called by the binding's FM handler) ----------------------------
    def match_posted(self, env: Envelope) -> Optional[PostedRecv]:
        """Find-and-remove the first posted receive matching ``env``."""
        for i, posted in enumerate(self.posted):
            if posted.matches(env):
                return self.posted.pop(i)
        return None

    def check_capacity(self, posted: PostedRecv, env: Envelope) -> None:
        if env.size > posted.buf.size:
            raise MpiError(
                f"rank {self.rank}: message of {env.size} bytes truncates "
                f"receive posted for {posted.buf.size} "
                f"(source {env.src_rank}, tag {env.tag})"
            )

    def complete_posted(self, posted: PostedRecv, env: Envelope) -> None:
        posted.request.finish(
            Status(source=env.src_rank, tag=env.tag, count=env.size),
            data=posted.buf.read(0, env.size),
        )

    def enqueue_unexpected(self, entry: UnexpectedMsg) -> None:
        self.unexpected.append(entry)
        self.stats_unexpected += 1

    def arrival_rts(self, env: Envelope) -> None:
        """An RTS arrived: match now or park it as unexpected."""
        posted = self.match_posted(env)
        if posted is None:
            self.enqueue_unexpected(UnexpectedMsg(env, None))
            return
        self.check_capacity(posted, env)
        self._rdv_posted[(env.src_rank, env.serial)] = posted
        self._queue_cts(env)

    def arrival_cts(self, env: Envelope) -> None:
        self._cts_received.add((env.src_rank, env.serial))

    def arrival_rts_rdma(self, env: Envelope, rkey: int) -> None:
        """An RDMA-read RTS arrived: queue the pull if a receive is
        posted, else park the advert (envelope + rkey) as unexpected."""
        posted = self.match_posted(env)
        if posted is None:
            self._rdma_rts[(env.src_rank, env.serial)] = rkey
            self.enqueue_unexpected(UnexpectedMsg(env, None))
            return
        self.check_capacity(posted, env)
        self._pull_jobs.append((posted, env, rkey))

    def arrival_fin(self, env: Envelope) -> None:
        self._fin_received.add((env.src_rank, env.serial))

    def take_rendezvous_posted(self, env: Envelope) -> PostedRecv:
        key = (env.src_rank, env.serial)
        posted = self._rdv_posted.pop(key, None)
        if posted is None:
            raise MpiError(
                f"rank {self.rank}: rendezvous data with no matched receive "
                f"(src {env.src_rank}, serial {env.serial})"
            )
        return posted

    def _queue_cts(self, rts: Envelope) -> None:
        cts = Envelope(rts.context, self.rank, INTERNAL_TAG_BASE,
                       0, KIND_CTS, rts.serial)
        self._cts_outbox.append((rts.src_rank, cts))

    # -- completing a receive from the unexpected queue ------------------------------------
    def _complete_from_unexpected(self, entry: UnexpectedMsg, request: Request,
                                  max_bytes: int) -> Generator:
        env = entry.envelope
        if env.size > max_bytes:
            raise MpiError(
                f"rank {self.rank}: unexpected message of {env.size} bytes "
                f"truncates receive of {max_bytes}"
            )
        if env.kind == KIND_RTS:
            # Late match of a rendezvous: adopt a posted slot and ask for data.
            posted = PostedRecv(env.context, env.src_rank, env.tag,
                                Buffer(max_bytes), request)
            self._rdv_posted[(env.src_rank, env.serial)] = posted
            self._queue_cts(env)
            return
        if env.kind == KIND_RTS_RDMA:
            # Late match of an RDMA advert: the next progress pass pulls.
            posted = PostedRecv(env.context, env.src_rank, env.tag,
                                Buffer(max_bytes), request)
            rkey = self._rdma_rts.pop((env.src_rank, env.serial))
            self._pull_jobs.append((posted, env, rkey))
            return
        yield from self.cpu.execute(self.costs.match_ns)
        user_buf = Buffer(max_bytes, name=f"mpi.recv[{self.rank}]")
        yield from self.binding.deliver_unexpected(entry, user_buf)
        request.finish(
            Status(source=env.src_rank, tag=env.tag, count=env.size),
            data=user_buf.read(0, env.size),
        )

    # -- misc ------------------------------------------------------------------------
    def _check_peer(self, dest: int, tag: int) -> None:
        if not 0 <= dest < self.n_ranks:
            raise MpiError(f"invalid destination rank {dest} of {self.n_ranks}")
        if dest == self.rank:
            raise MpiError("self-sends are not supported by MPI-FM")
        if tag < 0:
            raise MpiError(f"negative tag {tag}")

    def __repr__(self) -> str:
        return (f"<MpiEngine rank={self.rank}/{self.n_ranks} "
                f"posted={len(self.posted)} unexpected={len(self.unexpected)}>")
