"""Communicators: the user-facing MPI API surface.

A :class:`Communicator` pairs an engine with a context id, so tags in one
communicator can never match messages of another (``dup()`` allocates a new
context — the standard MPI isolation mechanism, used by the collectives).

Payloads are ``bytes`` (use :func:`to_bytes` / :func:`from_bytes` to move
numpy arrays through).  All calls are generators, invoked from a node
program as ``yield from comm.send(...)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.upper.mpi import collectives
from repro.upper.mpi.constants import ANY_SOURCE, ANY_TAG, MAX_USER_TAG
from repro.upper.mpi.engine import MpiEngine
from repro.upper.mpi.status import MpiError, Request, Status

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def to_bytes(array: np.ndarray) -> bytes:
    """Serialise a numpy array's data for transmission."""
    import numpy as np
    return np.ascontiguousarray(array).tobytes()


def from_bytes(data: bytes, dtype, shape=None) -> np.ndarray:
    """Deserialise bytes back into a numpy array."""
    import numpy as np
    array = np.frombuffer(data, dtype=dtype).copy()
    return array.reshape(shape) if shape is not None else array


class Communicator:
    """An ordered group of ranks sharing a matching context.

    ``group`` lists the *world* ranks that belong to this communicator, in
    rank order; ``None`` means the world group (identity mapping).  All
    point-to-point and collective calls take and report ranks in this
    communicator's own numbering and translate at the engine boundary.
    """

    def __init__(self, engine: MpiEngine, context: int = 0,
                 group: Optional[Sequence[int]] = None):
        self.engine = engine
        self.context = context
        self._collective_seq = 0
        self._dup_count = 0
        self._split_count = 0
        if group is not None:
            group = list(group)
            if engine.rank not in group:
                raise MpiError(
                    f"world rank {engine.rank} is not in group {group}"
                )
            if len(set(group)) != len(group):
                raise MpiError(f"duplicate ranks in group {group}")
        self.group: Optional[list[int]] = group

    # -- identity ----------------------------------------------------------
    @property
    def rank(self) -> int:
        if self.group is None:
            return self.engine.rank
        return self.group.index(self.engine.rank)

    @property
    def size(self) -> int:
        if self.group is None:
            return self.engine.n_ranks
        return len(self.group)

    def to_world(self, rank: int) -> int:
        """Translate a rank of this communicator to a world rank."""
        if rank in (ANY_SOURCE, ANY_TAG):
            return rank
        if not 0 <= rank < self.size:
            raise MpiError(f"rank {rank} out of range for size {self.size}")
        return rank if self.group is None else self.group[rank]

    def from_world(self, world_rank: int) -> int:
        """Translate a world rank back into this communicator's numbering."""
        if self.group is None:
            return world_rank
        return self.group.index(world_rank)

    def dup(self) -> "Communicator":
        """A new communicator over the same group with a fresh context.

        Contexts are derived deterministically from the parent's context and
        its dup count; all ranks must call ``dup`` in the same order (an MPI
        requirement the SPMD programs here satisfy by construction), so the
        contexts agree everywhere.
        """
        self._dup_count += 1
        child = (self.context << 5) + self._dup_count
        return Communicator(self.engine, context=child, group=self.group)

    def split(self, color: Optional[int], key: int = 0) -> Generator:
        """Partition this communicator by ``color`` (MPI_Comm_split).

        All ranks must call ``split`` collectively.  Ranks passing the same
        color form a new communicator, ordered by ``(key, old rank)``;
        passing ``None`` (MPI_UNDEFINED) yields ``None``.  Implemented as
        an allgather of (color, key) — the standard algorithm.
        """
        import struct as _struct
        self._split_count += 1
        sentinel = -(1 << 30)
        mine = _struct.pack("<iii", sentinel if color is None else color,
                            key, self.rank)
        packed = yield from self.allgather(mine)
        infos = [_struct.unpack("<iii", raw) for raw in packed]
        if color is None:
            return None
        members = sorted(
            (member_key, old_rank) for member_color, member_key, old_rank
            in infos if member_color == color
        )
        group = [self.to_world(old_rank) for _key, old_rank in members]
        # Deterministic child context: same inputs on every member.
        colors = sorted({c for c, _k, _r in infos if c != sentinel})
        child_context = (((self.context + 1) << 10)
                         + (self._split_count << 5) + colors.index(color))
        return Communicator(self.engine, context=child_context, group=group)

    # -- point to point ------------------------------------------------------
    def send(self, data: bytes, dest: int, tag: int = 0) -> Generator:
        self._check_tag(tag)
        yield from self.engine.send(self.to_world(dest), tag, data,
                                    self.context)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             max_bytes: Optional[int] = None) -> Generator:
        data, status = yield from self.engine.recv(
            self.to_world(source), tag, max_bytes, self.context)
        return data, self._localise(status)

    def isend(self, data: bytes, dest: int, tag: int = 0) -> Generator:
        self._check_tag(tag)
        request = yield from self.engine.isend(self.to_world(dest), tag,
                                               data, self.context)
        return request

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              max_bytes: Optional[int] = None) -> Generator:
        request = yield from self.engine.irecv(self.to_world(source), tag,
                                               max_bytes, self.context)
        return request

    def wait(self, request: Request) -> Generator:
        yield from self.engine.wait(request)
        return request.data, self._localise(request.status)

    def _localise(self, status: Optional[Status]) -> Optional[Status]:
        """Translate a status' source into this communicator's numbering."""
        if status is None or self.group is None:
            return status
        return Status(source=self.from_world(status.source),
                      tag=status.tag, count=status.count)

    def waitall(self, requests: Sequence[Request]) -> Generator:
        yield from self.engine.waitall(list(requests))

    def waitany(self, requests: Sequence[Request]) -> Generator:
        """Block until one request completes; returns (index, data, status)."""
        index = yield from self.engine.waitany(list(requests))
        request = requests[index]
        return index, request.data, self._localise(request.status)

    def waitsome(self, requests: Sequence[Request]) -> Generator:
        """Block until >= 1 request completes; returns completed indices."""
        indices = yield from self.engine.waitsome(list(requests))
        return indices

    def sendrecv(self, senddata: bytes, dest: int, recvsource: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 max_bytes: Optional[int] = None) -> Generator:
        """Simultaneous send and receive (deadlock-free pairwise exchange)."""
        recv_req = yield from self.irecv(recvsource, recvtag, max_bytes)
        yield from self.send(senddata, dest, sendtag)
        data, status = yield from self.wait(recv_req)
        return data, status

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking probe: progress until a matching message is queued."""
        status = yield from self.engine.probe(self.to_world(source), tag,
                                              self.context)
        return self._localise(status)

    # -- collectives (implemented in collectives.py, bound here) ---------------------
    def barrier(self) -> Generator:
        return collectives.barrier(self)

    def bcast(self, data: Optional[bytes], root: int = 0) -> Generator:
        return collectives.bcast(self, data, root)

    def reduce(self, array: np.ndarray, op=None, root: int = 0) -> Generator:
        return collectives.reduce(self, array, op, root)

    def allreduce(self, array: np.ndarray, op=None) -> Generator:
        return collectives.allreduce(self, array, op)

    def gather(self, data: bytes, root: int = 0) -> Generator:
        return collectives.gather(self, data, root)

    def scatter(self, chunks: Optional[Sequence[bytes]], root: int = 0) -> Generator:
        return collectives.scatter(self, chunks, root)

    def allgather(self, data: bytes) -> Generator:
        return collectives.allgather(self, data)

    def alltoall(self, chunks: Sequence[bytes]) -> Generator:
        return collectives.alltoall(self, chunks)

    def send_pieces(self, pieces: Sequence[bytes], dest: int,
                    tag: int = 0) -> Generator:
        """Send a multi-piece payload as one message (gather on FM 2.x,
        packed with a copy on FM 1.x); receive it as ordinary bytes."""
        self._check_tag(tag)
        yield from self.engine.send_pieces(self.to_world(dest), tag,
                                           list(pieces), self.context)

    def send_strided(self, array: np.ndarray, dest: int,
                     tag: int = 0) -> Generator:
        """Send a (possibly strided) 2-D array view row by row — the
        derived-datatype case where FM 2.x's gather avoids MPI_Pack."""
        if array.ndim != 2:
            raise MpiError(f"send_strided needs a 2-D array, got {array.ndim}-D")
        import numpy as np
        pieces = [np.ascontiguousarray(row).tobytes() for row in array]
        yield from self.send_pieces(pieces, dest, tag)

    # -- typed convenience wrappers -----------------------------------------------
    def send_array(self, array: np.ndarray, dest: int, tag: int = 0) -> Generator:
        """Send a numpy array (dtype/shape must be agreed out of band,
        as with MPI's typed buffers)."""
        yield from self.send(to_bytes(array), dest, tag)

    def recv_array(self, dtype, shape, source: int = ANY_SOURCE,
                   tag: int = ANY_TAG) -> Generator:
        """Receive a numpy array of the agreed dtype and shape."""
        import numpy as np
        expected = int(np.prod(shape)) * np.dtype(dtype).itemsize
        data, status = yield from self.recv(source, tag, max_bytes=expected)
        if status.count != expected:
            raise MpiError(
                f"typed receive expected {expected} bytes for dtype "
                f"{np.dtype(dtype)} shape {tuple(shape)}, got {status.count}"
            )
        return from_bytes(data, dtype, shape), status

    def scan(self, array: np.ndarray, op=None) -> Generator:
        return collectives.scan(self, array, op)

    def reduce_scatter(self, array: np.ndarray, op=None) -> Generator:
        return collectives.reduce_scatter(self, array, op)

    # -- internals ------------------------------------------------------------
    def next_collective_tag(self) -> int:
        """Deterministic per-communicator tag for one collective call.

        All ranks execute collectives in the same order on a communicator
        (an MPI requirement), so the sequence numbers agree everywhere.
        """
        tag = MAX_USER_TAG + (self._collective_seq % (1 << 12))
        self._collective_seq += 1
        return tag

    def _check_tag(self, tag: int) -> None:
        # User tags live in [0, MAX_USER_TAG); collective tags above that are
        # allocated by next_collective_tag and also flow through send().
        from repro.upper.mpi.constants import INTERNAL_TAG_BASE
        if not 0 <= tag < INTERNAL_TAG_BASE:
            raise MpiError(f"tag {tag} outside [0, {INTERNAL_TAG_BASE})")

    def __repr__(self) -> str:
        return f"<Communicator rank={self.rank}/{self.size} ctx={self.context}>"
