"""MPI bindings: the FM calls of one FM generation, plus the paper's three features.

The MPI protocol and its copy policy live in
:class:`~repro.upper.mpi.engine.MpiEngine`; a binding is only what differs
between FM generations:

* ``put(dest, pieces)`` — send ``pieces`` (bytes or buffers) as one message;
* an FM handler of a few lines: read the 24-byte envelope, hand it and the
  binding's handle on the payload behind it to ``engine.on_message``;
* ``land(source, dst, nbytes)`` — the payload straight into ``dst`` — and
  ``stage(source, nbytes, rendezvous)`` — the payload into a buffer MPI
  owns, returned as ``(buffer, offset of the payload in it)``;
* the class attributes documented on :class:`MpiBinding`: ``gather`` /
  ``steer`` / ``paced`` say which of §4.1's features the interface offers
  (FM 1.x none, FM 2.x all; the three ablations at the end flip them one
  at a time), ``label`` prefixes the binding's copy-meter labels.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator

from repro.hardware.memory import Buffer

from repro.core.fm1.api import FM1
from repro.core.fm2.api import FM2
from repro.core.rdma.api import RdmaEndpoint
from repro.upper.mpi.engine import MpiCosts, MpiEngine
from repro.upper.mpi.envelope import ENVELOPE_BYTES, Envelope

#: Calibrated against Figure 4 (see EXPERIMENTS.md): heavyweight ADI paths
#: of mid-90s MPICH on the 60 MHz SparcStation.
MPI1_DEFAULT_COSTS = MpiCosts(
    send_overhead_ns=12_000,
    recv_overhead_ns=8_000,
    match_ns=1_500,
    header_build_ns=500,
    pool_slots=2,
    eager_threshold=16 * 1024,
    progress_budget=None,        # FM 1.x extract has no byte budget
    completion_ns=2_000,
)

#: Calibrated against Figure 6 (see EXPERIMENTS.md): the lean
#: MPICH-over-FM-2.x port on the 200 MHz Pentium Pro.
MPI2_DEFAULT_COSTS = MpiCosts(
    send_overhead_ns=500,
    recv_overhead_ns=2000,
    match_ns=600,
    header_build_ns=300,
    pool_slots=64,               # paced extraction keeps this from overflowing
    eager_threshold=16 * 1024,
    progress_budget=8 * 1024,    # FM_extract(8 KB): receiver data pacing
    completion_ns=800,
)


class MpiBinding:
    """What every binding shares: the endpoint check, the handler
    registration, and the attributes the engine's copy policy reads."""

    #: The FM generation this binding's calls belong to.
    fm_cls: type

    #: **Gather** — the send call takes pieces, so the 24-byte envelope is
    #: the first piece and the user payload the second, straight from the
    #: user buffer.  Without it the interface accepts one contiguous
    #: buffer, and attaching the envelope copies the whole payload into an
    #: assembly buffer first (``*.send_assembly``; a multi-piece payload is
    #: packed before that, ``*.datatype_pack``).
    gather: bool

    #: **Layer interleaving** — the handler runs while the message is
    #: still arriving, so it reads just the envelope, matches it, then
    #: steers the payload into the pre-posted user buffer: exactly one
    #: copy, receive region -> destination.  Without it MPI's buffer
    #: management sits a layer above a handler that is given the whole
    #: message: the posted buffer's identity cannot be passed down
    #: mid-message (the paper's exact complaint), so the payload is staged,
    #: then matched, then copied again (``*.deliver``), pre-posted or not.
    steer: bool

    #: **Receiver flow control** — progress extracts under a byte budget
    #: (``FM_extract(bytes)``), so a burst can never flood the unexpected
    #: pool.  Without it ``FM_extract`` drains everything pending, bursts
    #: overrun the pool and the overflow is copied again into spill
    #: storage (``*.spill_copy``).  The budget and the pool size themselves
    #: are ``MpiCosts`` fields.
    paced: bool

    #: Prefix of this binding's ``CopyMeter`` labels.
    label: str

    #: One-sided endpoint the rendezvous payload rides, if any.
    rdma = None

    def __init__(self, engine: MpiEngine):
        self.engine = engine
        self.fm = engine.fm
        if not isinstance(self.fm, self.fm_cls):
            raise TypeError(
                f"{type(self).__name__} needs an {self.fm_cls.__name__} "
                f"endpoint, got {type(self.fm).__name__}"
            )
        self.handler_id = self.fm.register_handler(self._handler)


class MpiFm1Binding(MpiBinding):
    """MPI over the FM 1.x API: the copy-ridden binding of §3.2.

    ``FM_send`` takes one buffer and the handler is given the complete
    message in FM's staging buffer, so there is nothing to gather, nothing
    to steer (hence no ``land``) and nothing to pace.
    """

    fm_cls = FM1
    gather = steer = paced = False
    label = "mpi1"

    def put(self, dest: int, pieces: list[Buffer]) -> Generator:
        (message,) = pieces
        return self.fm.send(dest, self.handler_id, message, message.size)

    def _handler(self, fm, src: int, staging: Buffer, nbytes: int) -> Generator:
        envelope = Envelope.unpack(staging.read(0, ENVELOPE_BYTES))
        return self.engine.on_message(envelope, staging)

    def stage(self, staging: Buffer, nbytes: int, rendezvous: bool) -> Generator:
        """An eager payload always transits an MPI pool buffer
        (``mpi1.pool_copy``), pre-posted receive or not.  Rendezvous data
        was matched at RTS time, so it skips the pool — but the staging ->
        user copy remains, made from FM's staging buffer itself."""
        if rendezvous:
            return staging, ENVELOPE_BYTES
        pool = Buffer(nbytes, name=f"mpi1.pool[{self.engine.rank}]")
        if nbytes:
            yield from self.engine.cpu.memcpy(staging, ENVELOPE_BYTES, pool, 0,
                                              nbytes, label="mpi1.pool_copy")
        return pool, 0


class MpiFm2Binding(MpiBinding):
    """MPI over the FM 2.x stream API: the binding §4 enables, its handler
    the paper's §4.1 pattern — header first, match, then scatter the
    payload to its final destination."""

    fm_cls = FM2
    gather = steer = paced = True
    label = "mpi2"

    def put(self, dest: int, pieces: list) -> Generator:
        return self.fm.send_gather(dest, self.handler_id, pieces)

    def _handler(self, fm, stream, src: int) -> Generator:
        envelope = yield from stream.receive_bytes(ENVELOPE_BYTES)
        yield from self.engine.on_message(Envelope.unpack(envelope), stream)

    def land(self, stream, dst: Buffer, nbytes: int) -> Generator:
        return stream.receive(dst, 0, nbytes)

    def stage(self, stream, nbytes: int, rendezvous: bool) -> Generator:
        """One pool buffer, filled by the single ``FM_receive`` copy — it
        is MPI's, not FM's, so it can sit in the unexpected queue as is."""
        pool = Buffer(nbytes, name=f"{self.label}.pool[{self.engine.rank}]")
        if nbytes:
            yield from stream.receive(pool, 0, nbytes)
        return pool, 0


class MpiFm2RdmaBinding(MpiFm2Binding):
    """FM 2.x binding with the rendezvous payload routed over RDMA read.

    The classic rendezvous costs the sender a full data transmission after
    the CTS: every payload packet crosses the sender's CPU and both hosts'
    software stacks.  With an :class:`~repro.core.rdma.api.RdmaEndpoint`
    on the binding the engine replaces that tail with the one-sided
    transport: the sender registers the payload and advertises it in a
    ``KIND_RTS_RDMA`` envelope whose 8-byte descriptor carries the rkey;
    the receiver *pulls* with an RDMA read straight into the posted user
    buffer (the sender's NIC serves the read in firmware, zero sender-host
    cycles), then answers ``KIND_RDMA_FIN`` so the sender can deregister.
    No CTS, no ``KIND_RENDEZVOUS_DATA`` message; eager traffic, matching
    and every control envelope ride the unmodified FM 2.x paths.
    """

    def __init__(self, engine: MpiEngine):
        super().__init__(engine)
        self.rdma = RdmaEndpoint(engine.node)


# -- The §4.1 ablations: MpiFm2Binding with *one* feature taken away, so the
# efficiency loss is attributed feature by feature.  Their copies are
# metered as ``ablation.*``.

class NoGatherBinding(MpiFm2Binding):
    """FM 2.x receive path, but sends assemble envelope + payload into one
    contiguous buffer first (one full memcpy; multi-piece payloads are
    packed before that), as an FM-1.x-style contiguous interface forces."""

    gather = False
    label = "ablation"


class NoInterleavingBinding(MpiFm2Binding):
    """The handler cannot steer mid-message: every payload is received into
    a staging pool buffer and copied to the user buffer afterwards,
    pre-posted receive or not."""

    steer = False
    label = "ablation"


class NoPacingBinding(MpiFm2Binding):
    """Full FM 2.x data path, but bursts overflow a small pool and spill
    (the §3.2 overrun copy); run it with :data:`NO_PACING_COSTS`."""

    paced = False
    label = "ablation"


#: Costs for the no-pacing ablation: the progress engine extracts without a
#: byte budget (FM 1.x semantics) into a tiny unexpected pool.
NO_PACING_COSTS = replace(MPI2_DEFAULT_COSTS, progress_budget=None, pool_slots=2)
