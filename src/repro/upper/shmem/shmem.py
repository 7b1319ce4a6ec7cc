"""Shmem Put/Get: a Cray-style global address space over FM 2.x.

Every node registers *symmetric regions* (same id and size everywhere);
``put`` writes into a remote region, ``get`` reads from one, ``acc``
accumulates (numpy add) — all one-sided from the caller's viewpoint, with
the target's FM handler doing the remote work during its extracts.

FM 2.x mechanics used here: a ``put``'s payload is scattered by the remote
handler **directly into the target region** at the requested offset (the
header piece names the region and offset, the payload piece lands in
place) — the same interleaving trick as MPI-FM2's receive posting, on a
one-sided API.

Remote progress: like real Shmem on FM, the target must service the
network; programs call ``progress()`` (or sit in ``barrier``/``fence``)
to serve remote operations.  Replies (get data, acks) are queued by the
handler and flushed by ``progress`` — handlers never send.  The pass, the
credit-stall hook and the blocking waits are the shared
:class:`~repro.core.progress.Progress` engine.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import TYPE_CHECKING, Generator, Optional

from repro.hardware.memory import Buffer
from repro.hardware.packet import Site

from repro.core.fm2.api import FM2
from repro.core.progress import Progress

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np
    from repro.cluster.node import Node

_HEADER = "<iiiii"          # op, region, offset, size, token
HEADER_BYTES = struct.calcsize(_HEADER)

OP_PUT = 1
OP_GET = 2
OP_GET_REPLY = 3
OP_ACK = 4
OP_ACC = 5
OP_BARRIER = 6


class ShmemError(Exception):
    """Shmem usage errors (unknown region, out-of-range access)."""


class Shmem:
    """One node's Shmem endpoint."""

    def __init__(self, node: "Node", n_pes: int):
        if not isinstance(node.fm, FM2):
            raise ShmemError("Shmem-FM requires an FM 2.x endpoint")
        self.node = node
        self.env = node.env
        self.cpu = node.cpu
        self.fm: FM2 = node.fm
        self.n_pes = n_pes
        self.me = node.node_id
        track = f"node{node.node_id}/shmem"
        self._put_site, self._get_site, self._acc_site = (
            Site("shmem", name, track, "pe", "region", "bytes")
            for name in ("put", "get", "acc"))
        self._barrier_site = Site("shmem", "barrier", track, "epoch")
        self.handler_id = self.fm.register_handler(self._handler)
        self.regions: dict[int, Buffer] = {}
        self._next_token = 1
        self._get_replies: dict[int, bytes] = {}
        self._acks = 0              # completed remote puts/accs (for fence)
        self._puts_issued = 0
        self._barrier_seen: dict[int, int] = {}   # epoch -> count
        self._barrier_epoch = 0
        self._outbox: deque[tuple[int, tuple, bytes]] = deque()
        self._progress = Progress(
            self.fm, 8192, self._flush,
            lambda what: ShmemError(f"PE {self.me} stalled waiting for {what}"))
        self.fm.stall_hook = self._progress.on_credit_stall

    # -- region management ----------------------------------------------------
    def register_region(self, region_id: int, nbytes: int) -> Buffer:
        """Allocate a symmetric region (call with the same args on all PEs)."""
        if region_id in self.regions:
            raise ShmemError(f"region {region_id} already registered")
        region = Buffer(nbytes, name=f"shmem.region{region_id}@{self.me}",
                        pinned=True)
        self.regions[region_id] = region
        return region

    def region(self, region_id: int) -> Buffer:
        if region_id not in self.regions:
            raise ShmemError(f"unknown region {region_id}")
        return self.regions[region_id]

    # -- one-sided operations --------------------------------------------------------
    def put(self, pe: int, region_id: int, offset: int, data: bytes) -> Generator:
        """Write ``data`` into ``pe``'s region at ``offset`` (non-blocking:
        completion is guaranteed only after ``fence``)."""
        self._check_remote(pe, region_id, offset, len(data))
        self._puts_issued += 1
        obs = self.env.obs
        t0 = self.env.now
        yield from self._send(pe, OP_PUT, region_id, offset, len(data),
                              token=0, payload=data)
        if obs is not None:
            obs.record(self._put_site, t0, pe, region_id, len(data))

    def get(self, pe: int, region_id: int, offset: int, nbytes: int) -> Generator:
        """Read ``nbytes`` from ``pe``'s region at ``offset`` (blocking)."""
        self._check_remote(pe, region_id, offset, nbytes)
        token = self._next_token
        self._next_token += 1
        obs = self.env.obs
        t0 = self.env.now
        yield from self._send(pe, OP_GET, region_id, offset, nbytes, token, b"")
        yield from self._progress.wait_until(
            lambda: token in self._get_replies, "get reply")
        if obs is not None:
            obs.record(self._get_site, t0, pe, region_id, nbytes)
        return self._get_replies.pop(token)

    def acc(self, pe: int, region_id: int, offset: int,
            values: np.ndarray) -> Generator:
        """Accumulate (add) ``values`` into ``pe``'s region (float64)."""
        import numpy as np
        data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
        self._check_remote(pe, region_id, offset, len(data))
        self._puts_issued += 1
        obs = self.env.obs
        t0 = self.env.now
        yield from self._send(pe, OP_ACC, region_id, offset, len(data), 0, data)
        if obs is not None:
            obs.record(self._acc_site, t0, pe, region_id, len(data))

    def fence(self) -> Generator:
        """Block until every put/acc issued so far is applied remotely."""
        issued = self._puts_issued
        yield from self._progress.wait_until(
            lambda: self._acks >= issued, "fence acks")

    def barrier(self) -> Generator:
        """Global barrier across all PEs (flat notify-all)."""
        epoch = self._barrier_epoch
        self._barrier_epoch += 1
        obs = self.env.obs
        t0 = self.env.now
        for pe in range(self.n_pes):
            if pe != self.me:
                yield from self._send(pe, OP_BARRIER, 0, 0, 0, epoch, b"")
        yield from self._progress.wait_until(
            lambda: self._barrier_seen.get(epoch, 0) >= self.n_pes - 1,
            f"barrier epoch {epoch}",
        )
        if obs is not None:
            obs.record(self._barrier_site, t0, epoch)

    # -- progress ----------------------------------------------------------------
    def progress(self, budget: Optional[int] = None) -> Generator:
        """Serve remote operations: one extract pass (8 KB unless
        ``budget`` says otherwise) plus the replies it queued."""
        return self._progress.progress(budget)

    def _flush(self) -> Generator:
        flushed = False
        while self._outbox:
            pe, header_fields, payload = self._outbox.popleft()
            yield from self._send(pe, *header_fields, payload)
            flushed = True
        return flushed

    # -- wire -----------------------------------------------------------------------
    def _send(self, pe: int, op: int, region_id: int, offset: int, size: int,
              token: int, payload: bytes) -> Generator:
        pieces = [struct.pack(_HEADER, op, region_id, offset, size, token)]
        if payload:
            pieces.append(payload)
        return self.fm.send_gather(pe, self.handler_id, pieces)

    def _handler(self, fm, stream, src: int) -> Generator:
        raw = yield from stream.receive_bytes(HEADER_BYTES)
        op, region_id, offset, size, token = struct.unpack(_HEADER, raw)

        if op == OP_PUT:
            region = self.region(region_id)
            # The payload lands straight in the target region: zero staging.
            yield from stream.receive(region, offset, size)
            self._outbox.append((src, (OP_ACK, region_id, offset, 0, token), b""))
        elif op == OP_GET:
            region = self.region(region_id)
            data = region.read(offset, size)
            yield from self.cpu.execute(self.cpu.memcpy_cost(size))
            self._outbox.append(
                (src, (OP_GET_REPLY, region_id, offset, size, token), data))
        elif op == OP_GET_REPLY:
            data = yield from stream.receive_bytes(size)
            self._get_replies[token] = data
        elif op == OP_ACK:
            self._acks += 1
        elif op == OP_ACC:
            region = self.region(region_id)
            data = yield from stream.receive_bytes(size)
            import numpy as np
            incoming = np.frombuffer(data, dtype=np.float64)
            current = np.frombuffer(region.read(offset, size), dtype=np.float64)
            result = current + incoming
            yield from self.cpu.execute(self.cpu.memcpy_cost(size))
            region.write(result.tobytes(), offset)
            self._outbox.append((src, (OP_ACK, region_id, offset, 0, token), b""))
        elif op == OP_BARRIER:
            self._barrier_seen[token] = self._barrier_seen.get(token, 0) + 1
        else:
            raise ShmemError(f"unknown shmem op {op}")

    # -- checks ----------------------------------------------------------------------
    def _check_remote(self, pe: int, region_id: int, offset: int, nbytes: int) -> None:
        if not 0 <= pe < self.n_pes:
            raise ShmemError(f"PE {pe} out of range [0, {self.n_pes})")
        if pe == self.me:
            raise ShmemError("local put/get not supported; use the region buffer")
        region = self.region(region_id)   # symmetric: local size == remote size
        if offset < 0 or nbytes < 0 or offset + nbytes > region.size:
            raise ShmemError(
                f"access [{offset}, {offset + nbytes}) out of range for "
                f"region {region_id} of {region.size} bytes"
            )

    def __repr__(self) -> str:
        return f"<Shmem pe={self.me}/{self.n_pes} regions={sorted(self.regions)}>"
