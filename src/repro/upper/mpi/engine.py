"""The per-rank MPI engine: matching, queues, protocol, copy policy, progress.

One :class:`MpiEngine` lives on each node and owns everything about
MPI-over-FM that does not depend on the FM generation; what does — the FM
calls — is its *binding* (:mod:`repro.upper.mpi.bindings`).  The engine
keeps the two canonical MPI queues:

* **posted receives** — receives waiting for a matching message;
* **unexpected messages** — messages that arrived before their receive.

Matching is on ``(context, source, tag)`` with ``ANY_SOURCE`` / ``ANY_TAG``
wildcards, FIFO within equal matches (MPI's non-overtaking rule — which FM's
in-order delivery makes cheap to provide, exactly the paper's §3.1 point).

Protocol: messages up to ``costs.eager_threshold`` go **eager** (envelope +
payload in one FM message); larger ones use **rendezvous** (RTS envelope,
CTS reply once a receive is matched, then the payload — or, on a binding
with an RDMA endpoint, an advert the receiver pulls from), which bounds
unexpected-data buffering.

Copy policy: :meth:`MpiEngine.transmit` is the one send path and
:meth:`MpiEngine.on_message` the one receive path; the copies in them are
switched by the binding's ``gather`` / ``steer`` / ``paced`` attributes, so
"MPI-FM 2.x is MPI-FM 1.x minus three interface-forced copies" is the code.

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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Generator, Optional

from repro.hardware.memory import Buffer
from repro.hardware.packet import Site

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
from repro.upper.mpi.envelope import ENVELOPE_BYTES, RDMA_DESC, Envelope
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


def _matches(context: int, source: int, tag: int, env: Envelope) -> bool:
    """Does a receive for ``(context, source, tag)`` accept ``env``?"""
    return (context == env.context
            and source in (ANY_SOURCE, env.src_rank)
            and tag in (ANY_TAG, env.tag))


@dataclass
class PostedRecv:
    context: int
    source: int                 # rank or ANY_SOURCE
    tag: int                    # tag or ANY_TAG
    max_bytes: Optional[int]    # largest message accepted (None: any)
    request: Request
    buf: Optional[Buffer] = None  # user destination, sized by the envelope


@dataclass
class UnexpectedMsg:
    envelope: Envelope
    data_buf: Optional[Buffer]   # eager payload (None for RTS / RDMA advert)
    rkey: Optional[int] = None   # RDMA advert: the region the pull names


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
        track = f"node{node.node_id}/mpi"
        self._send_site = Site("mpi", "MPI_Send", track,
                               "dest", "tag", "bytes", "protocol")
        self._recv_site = Site("mpi", "MPI_Recv", track, "source", "tag", "bytes")
        self._wait_site = Site("mpi", "MPI_Wait", track, "kind", "bytes")
        self.posted: list[PostedRecv] = []
        self.unexpected: list[UnexpectedMsg] = []
        self._serials: dict[int, int] = {}               # dest -> next serial
        # Rendezvous replies that arrived, as (peer, serial): a CTS, or the
        # FIN of an RDMA pull — one serial runs one protocol, never both.
        self._acked: set[tuple[int, int]] = set()
        self._rdv_posted: dict[tuple[int, int], PostedRecv] = {}  # (src, serial)
        # Replies the handlers deferred (handlers never send): CTS
        # envelopes, and RDMA pulls as (receive, advert, rkey).
        self._cts_outbox: list[tuple[int, Envelope]] = []
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

    def transmit(self, dest: int, envelope: Envelope, *payload: bytes,
                 pack: bool = False) -> Generator:
        """Every send: ``envelope`` then the ``payload`` pieces, as one FM
        message.

        With ``gather`` the envelope is the first piece and each payload
        piece follows straight from its source — no copy anywhere on the
        send path (§4.1).  Without it the message must be made contiguous
        first (:meth:`_transmit_contiguous`).
        """
        binding = self.binding
        if not binding.gather:
            return self._transmit_contiguous(dest, envelope, payload, pack)
        pieces = [envelope.pack()]
        pieces += [piece for piece in payload if piece]
        return binding.put(dest, pieces)

    def _transmit_contiguous(self, dest: int, envelope: Envelope,
                             payload: tuple, pack: bool) -> Generator:
        """The §3.2 send path: an interface that accepts one contiguous
        buffer forces the whole payload to be copied behind the 24-byte
        envelope (``*.send_assembly``), and a multi-piece payload
        (``pack``, even of one piece) to be packed before that
        (``*.datatype_pack``) — one extra copy per byte each."""
        cpu = self.cpu
        label = self.binding.label
        if pack:
            source = Buffer(sum(len(piece) for piece in payload),
                            name=f"{label}.pack")
            offset = 0
            for piece in payload:
                if piece:
                    yield from cpu.memcpy(
                        Buffer.from_bytes(piece, name=f"{label}.user_piece"),
                        0, source, offset, len(piece),
                        label=f"{label}.datatype_pack")
                    offset += len(piece)
        else:
            # send(): the payload is one user buffer (none for control).
            source = Buffer.from_bytes(b"".join(payload),
                                       name=f"{label}.user_send")
        assembly = Buffer(ENVELOPE_BYTES + source.size,
                          name=f"{label}.assembly[{self.rank}]")
        assembly.write(envelope.pack(), 0)
        if source.size:
            yield from cpu.memcpy(source, 0, assembly, ENVELOPE_BYTES,
                                  source.size, label=f"{label}.send_assembly")
        yield from self.binding.put(dest, [assembly])

    def send(self, dest: int, tag: int, data: bytes, context: int = 0) -> Generator:
        """Blocking (eager- or rendezvous-protocol) send of ``data``."""
        self._check_peer(dest, tag)
        obs = self.env.obs
        t0 = self.env.now
        yield from self.cpu.execute(self.costs.send_overhead_ns
                                    + self.costs.header_build_ns)
        serial = self.next_serial(dest)
        size = len(data)
        if size <= self.costs.eager_threshold:
            protocol = "eager"
            yield from self.transmit(
                dest, Envelope(context, self.rank, tag, size, KIND_EAGER,
                               serial), data)
        else:
            self.stats_rendezvous += 1
            rts = Envelope(context, self.rank, tag, size, KIND_RTS, serial)
            if self.binding.rdma is not None:
                protocol = "rendezvous-rdma"
                yield from self._send_rendezvous_rdma(
                    dest, replace(rts, kind=KIND_RTS_RDMA), data)
            else:
                # Rendezvous: RTS, wait for CTS, then the payload.
                protocol = "rendezvous"
                yield from self.transmit(dest, rts)
                yield from self._wait_ack(
                    dest, serial, f"no CTS from rank {dest} (serial "
                    f"{serial}) — receiver never posted?")
                yield from self.transmit(
                    dest, replace(rts, kind=KIND_RENDEZVOUS_DATA), data)
        if obs is not None:
            obs.record(self._send_site, t0, dest, tag, size, protocol)

    def _send_rendezvous_rdma(self, dest: int, advert: Envelope,
                              data: bytes) -> Generator:
        """Rendezvous over one-sided RDMA read: register the payload,
        advertise it (the RTS_RDMA envelope carries an rkey descriptor),
        and let the receiver *pull* — the sender transmits zero data
        packets.  The FIN reply bounds the region's lifetime so the source
        buffer can be deregistered."""
        rdma = self.binding.rdma
        self.stats_rdma_rendezvous += 1
        source = Buffer.from_bytes(data, name=f"mpi.rdma_src[{self.rank}]")
        rkey = yield from rdma.register(source)
        yield from self.transmit(dest, advert, RDMA_DESC.pack(rkey))
        yield from self._wait_ack(
            dest, advert.serial,
            f"no RDMA FIN from rank {dest} (serial {advert.serial}) — "
            "receiver never pulled?")
        yield from rdma.deregister(rkey)

    def _wait_ack(self, dest: int, serial: int, what: str) -> Generator:
        """Progress until ``dest`` has answered rendezvous ``serial``."""
        key = (dest, serial)
        yield from self._progress.wait_until(lambda: key in self._acked, what)
        self._acked.remove(key)

    def send_pieces(self, dest: int, tag: int, pieces: list[bytes],
                    context: int = 0) -> Generator:
        """Eager send of a multi-piece payload (derived-datatype style).

        With gather each piece goes straight from its source — the
        paper's gather argument applied to derived datatypes; without it
        the pieces are packed first (a metered per-byte copy).  The
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
        yield from self.transmit(dest, envelope, *pieces, pack=True)

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
    def irecv(self, source: int, tag: int, max_bytes: Optional[int] = None,
              context: int = 0) -> Generator:
        """Post a receive; returns a :class:`Request` immediately.

        ``max_bytes`` bounds the message accepted (``None``: any size); it
        reserves nothing — the user buffer exists once an envelope has
        matched (:meth:`_bind`)."""
        if max_bytes is not None and max_bytes < 0:
            raise MpiError(f"negative receive size {max_bytes}")
        yield from self.cpu.execute(self.costs.recv_overhead_ns)
        posted = PostedRecv(context, source, tag, max_bytes, Request("recv"))
        # Unexpected queue first (FIFO — preserves non-overtaking).
        index = self._find_unexpected(context, source, tag)
        if index is not None:
            yield from self._complete_from_unexpected(
                self.unexpected.pop(index), posted)
        else:
            self.posted.append(posted)
        return posted.request

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             max_bytes: Optional[int] = None, context: int = 0) -> Generator:
        """Blocking receive; returns ``(data, Status)``."""
        obs = self.env.obs
        t0 = self.env.now
        request = yield from self.irecv(source, tag, max_bytes, context)
        yield from self.wait(request)
        if obs is not None:
            obs.record(self._recv_site, t0, source, tag,
                       request.status.count if request.status else 0)
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
            obs.record(self._wait_site, t0, request.kind,
                       request.status.count if request.status else 0)

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
        return self._probe_status(context, source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              context: int = 0) -> Generator:
        """Blocking probe: progress until a matching message is queued."""
        yield from self._progress.wait_until(
            lambda: self._find_unexpected(context, source, tag) is not None,
            f"probe() saw no message from {source} with tag {tag}")
        return self._probe_status(context, source, tag)

    def _find_unexpected(self, context: int, source: int,
                         tag: int) -> Optional[int]:
        """Queue index of the oldest unexpected message a receive for
        ``(context, source, tag)`` would take, or None."""
        for index, entry in enumerate(self.unexpected):
            if _matches(context, source, tag, entry.envelope):
                return index
        return None

    def _probe_status(self, context: int, source: int,
                      tag: int) -> Optional[Status]:
        index = self._find_unexpected(context, source, tag)
        if index is None:
            return None
        env = self.unexpected[index].envelope
        return Status(source=env.src_rank, tag=env.tag, count=env.size)

    # -- progress ---------------------------------------------------------------------
    def progress(self) -> Generator:
        """One bounded extraction pass plus deferred control replies;
        returns True if anything happened."""
        return self._progress.progress()

    def _flush(self) -> Generator:
        """Send what the handlers deferred: each CTS, then each RDMA pull —
        a one-sided read straight into the posted buffer (the remote NIC
        serves it in firmware with no sender-host involvement), then a FIN
        so the sender can deregister."""
        flushed = False
        while self._cts_outbox:
            dest, cts = self._cts_outbox.pop(0)
            yield from self.transmit(dest, cts)
            flushed = True
        while self._pull_jobs:
            posted, env, rkey = self._pull_jobs.pop(0)
            yield from self.binding.rdma.rdma_get(env.src_rank, rkey,
                                                  posted.buf, env.size)
            self.stats_rdma_pulls += 1
            fin = Envelope(env.context, self.rank, INTERNAL_TAG_BASE, 0,
                           KIND_RDMA_FIN, env.serial)
            yield from self.transmit(env.src_rank, fin)
            self._complete(posted, env)
            flushed = True
        return flushed

    # -- the one receive path (called by the binding's FM handler) -------------------------
    def on_message(self, env: Envelope, source) -> Generator:
        """An MPI message arrived: ``env`` is its envelope, ``source`` the
        binding's handle on the payload behind it (FM 1.x: the staging
        buffer; FM 2.x: the receive stream, payload possibly still on the
        wire).

        With ``steer`` the payload is matched and then landed in the posted
        buffer; without it, staged whole, *then* matched, *then* copied
        (``*.deliver``).  Without ``paced`` an unexpected burst past
        ``costs.pool_slots`` is copied again (``*.spill_copy``).  Why each
        copy is forced: :class:`~repro.upper.mpi.bindings.MpiBinding`.
        """
        binding = self.binding
        cpu = self.cpu
        yield from cpu.execute(self.costs.match_ns)
        kind = env.kind
        if kind == KIND_CTS:
            self._acked.add((env.src_rank, env.serial))
            return
        if kind == KIND_RTS:
            self._arrival_rts(env)
            return
        if binding.rdma is not None:
            if kind == KIND_RDMA_FIN:
                self._acked.add((env.src_rank, env.serial))
                return
            if kind == KIND_RTS_RDMA:
                desc = Buffer(RDMA_DESC.size, name="mpi.rdma_desc")
                yield from binding.land(source, desc, RDMA_DESC.size)
                (rkey,) = RDMA_DESC.unpack(desc.read())
                self._arrival_rts(env, rkey)
                return
        if kind not in (KIND_EAGER, KIND_RENDEZVOUS_DATA):
            raise MpiError(f"unknown protocol kind {kind}")

        size = env.size
        if binding.steer:
            posted = self._take_posted(env)
            if posted is not None:
                if size:
                    yield from binding.land(source, posted.buf, size)
                self._complete(posted, env)
                return
        staged, offset = yield from binding.stage(
            source, size, kind == KIND_RENDEZVOUS_DATA)
        # Match only now — with ``steer``, *again*: a handler can be parked
        # mid-stage (budget spent, packets still on the wire) while its
        # receive is posted, and must not leave it to the next message.
        posted = self._take_posted(env)
        if posted is not None:
            if size:
                yield from cpu.memcpy(staged, offset, posted.buf, 0, size,
                                      label=f"{binding.label}.deliver")
            self._complete(posted, env)
            return

        # Unexpected: the staged payload is the pool entry.
        entry = UnexpectedMsg(env, staged)
        self._enqueue_unexpected(entry)
        if (not binding.paced and size
                and len(self.unexpected) > self.costs.pool_slots):
            entry.data_buf = Buffer(
                size, name=f"{binding.label}.spill[{self.rank}]")
            yield from cpu.memcpy(staged, 0, entry.data_buf, 0, size,
                                  label=f"{binding.label}.spill_copy")
            self.stats_spills += 1

    def _take_posted(self, env: Envelope) -> Optional[PostedRecv]:
        """Find-and-remove the receive ``env`` lands in: the one its RTS
        was matched to (rendezvous data), else the first posted match —
        None means unexpected."""
        if env.kind == KIND_RENDEZVOUS_DATA:
            posted = self._rdv_posted.pop((env.src_rank, env.serial), None)
            if posted is None:
                raise MpiError(
                    f"rank {self.rank}: rendezvous data with no matched "
                    f"receive (src {env.src_rank}, serial {env.serial})"
                )
            return posted
        for index, posted in enumerate(self.posted):
            if _matches(posted.context, posted.source, posted.tag, env):
                del self.posted[index]
                return self._bind(posted, env)
        return None

    def _bind(self, posted: PostedRecv, env: Envelope) -> PostedRecv:
        """``env`` has met its receive — posted or late, eager or the RTS
        of a rendezvous: only now is there a size, so only now is there a
        user buffer (the paper's point: choose the destination after the
        header).  A message past the receive's bound is a truncation."""
        if posted.max_bytes is not None and env.size > posted.max_bytes:
            raise MpiError(
                f"rank {self.rank}: message of {env.size} bytes truncates "
                f"receive posted for {posted.max_bytes} "
                f"(source {env.src_rank}, tag {env.tag})"
            )
        posted.buf = Buffer(env.size, name=f"mpi.recv[{self.rank}]")
        return posted

    def _complete(self, posted: PostedRecv, env: Envelope) -> None:
        posted.request.finish(
            Status(source=env.src_rank, tag=env.tag, count=env.size),
            data=posted.buf.read(0, env.size),
        )

    def _enqueue_unexpected(self, entry: UnexpectedMsg) -> None:
        self.unexpected.append(entry)
        self.stats_unexpected += 1

    def _arrival_rts(self, env: Envelope, rkey: Optional[int] = None) -> None:
        """An RTS (or, with ``rkey``, an RDMA advert) arrived: answer it if
        a receive is posted, else park it as unexpected."""
        posted = self._take_posted(env)
        if posted is None:
            self._enqueue_unexpected(UnexpectedMsg(env, None, rkey))
        else:
            self._grant(posted, env, rkey)

    def _grant(self, posted: PostedRecv, rts: Envelope,
               rkey: Optional[int]) -> None:
        """``rts`` has met its receive: queue the CTS that asks for the
        data (remembering where it goes), or the pull of an RDMA advert.
        Deferred to the next flush — handlers never send."""
        if rkey is not None:
            self._pull_jobs.append((posted, rts, rkey))
            return
        self._rdv_posted[(rts.src_rank, rts.serial)] = posted
        cts = Envelope(rts.context, self.rank, INTERNAL_TAG_BASE,
                       0, KIND_CTS, rts.serial)
        self._cts_outbox.append((rts.src_rank, cts))

    # -- completing a receive from the unexpected queue ------------------------------------
    def _complete_from_unexpected(self, entry: UnexpectedMsg,
                                  posted: PostedRecv) -> Generator:
        env = entry.envelope
        self._bind(posted, env)
        if entry.data_buf is None:
            # Late match of a rendezvous: ask for (or, next progress pass,
            # pull) the data.
            self._grant(posted, env, entry.rkey)
            return
        yield from self.cpu.execute(self.costs.match_ns)
        if env.size:
            # Pool (or spill) buffer -> user buffer at MPI_Recv time.
            yield from self.cpu.memcpy(entry.data_buf, 0, posted.buf, 0,
                                       env.size,
                                       label=f"{self.binding.label}.deliver")
        self._complete(posted, env)

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
