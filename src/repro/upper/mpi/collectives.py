"""MPI collectives over point-to-point, with the classic algorithms.

* barrier — dissemination (log2 rounds of pairwise notifications);
* bcast — binomial tree;
* reduce — binomial tree reduction (numpy ufunc applied pairwise);
* allreduce — recursive doubling (butterfly exchange);
* gather / scatter — linear to/from the root;
* allgather — ring;
* alltoall — pairwise sendrecv schedule.

Every collective draws a fresh tag from the communicator's deterministic
collective sequence, so back-to-back collectives cannot cross-match.
Reductions run on numpy arrays serialised with ``to_bytes``/``from_bytes``;
all ranks must pass arrays of identical dtype and shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.upper.mpi.status import MpiError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def _tree_parent(relative: int) -> int:
    """Parent in the binomial tree (relative rank space): clear lowest bit."""
    return relative & (relative - 1)


def barrier(comm) -> Generator:
    """Dissemination barrier: ceil(log2 n) rounds of token exchanges."""
    size, rank = comm.size, comm.rank
    tag = comm.next_collective_tag()
    distance = 1
    while distance < size:
        dest = (rank + distance) % size
        source = (rank - distance) % size
        yield from comm.sendrecv(b"", dest, source, sendtag=tag, recvtag=tag)
        distance <<= 1


def bcast(comm, data: Optional[bytes], root: int = 0) -> Generator:
    """Binomial-tree broadcast; returns the data on every rank."""
    size, rank = comm.size, comm.rank
    _check_root(root, size)
    if rank == root and data is None:
        raise MpiError("bcast root must supply data")
    tag = comm.next_collective_tag()
    relative = (rank - root) % size
    if relative != 0:
        parent = (_tree_parent(relative) + root) % size
        data, _status = yield from comm.recv(parent, tag)
    for child_rel in _binomial_children(relative, size):
        child = (child_rel + root) % size
        yield from comm.send(data, child, tag)
    return data


def _binomial_children(relative: int, size: int) -> list[int]:
    """Children of ``relative`` in a binomial tree rooted at 0."""
    children = []
    bit = 1
    # Find the lowest set bit of `relative` (its distance to its parent);
    # children are below that bit.
    while bit < size:
        if relative & bit:
            break
        child = relative | bit
        if child < size:
            children.append(child)
        bit <<= 1
    return children


def reduce(comm, array: np.ndarray, op=None, root: int = 0) -> Generator:
    """Binomial-tree reduction (``op`` defaults to ``numpy.add``); returns
    the result at root, None elsewhere."""
    import numpy as np
    if op is None:
        op = np.add
    size, rank = comm.size, comm.rank
    _check_root(root, size)
    accumulator = np.array(array, copy=True)
    tag = comm.next_collective_tag()
    relative = (rank - root) % size
    bit = 1
    while bit < size:
        if relative & bit:
            parent = ((relative & ~bit) + root) % size
            yield from comm.send(accumulator.tobytes(), parent, tag)
            break
        child_rel = relative | bit
        if child_rel < size:
            child = (child_rel + root) % size
            raw, _status = yield from comm.recv(child, tag)
            accumulator = op(accumulator, _as_array(raw, accumulator))
        bit <<= 1
    return accumulator if rank == root else None


def allreduce(comm, array: np.ndarray, op=None) -> Generator:
    """Recursive-doubling allreduce; returns the result on every rank.

    For non-power-of-two sizes, surplus ranks fold into partners first and
    receive the final result at the end (the standard pre/post phase).
    ``op`` defaults to ``numpy.add``.
    """
    import numpy as np
    if op is None:
        op = np.add
    size, rank = comm.size, comm.rank
    accumulator = np.array(array, copy=True)
    tag = comm.next_collective_tag()
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    surplus = size - pof2

    # Pre-phase: ranks [pof2, size) send their data to [0, surplus).
    if rank >= pof2:
        partner = rank - pof2
        yield from comm.send(accumulator.tobytes(), partner, tag)
        raw, _ = yield from comm.recv(partner, tag + 1)
        return _as_array(raw, accumulator)
    if rank < surplus:
        raw, _ = yield from comm.recv(rank + pof2, tag)
        accumulator = op(accumulator, _as_array(raw, accumulator))

    # Butterfly among the power-of-two group.
    distance = 1
    while distance < pof2:
        partner = rank ^ distance
        raw, _ = yield from comm.sendrecv(accumulator.tobytes(), partner,
                                          partner, sendtag=tag, recvtag=tag)
        accumulator = op(accumulator, _as_array(raw, accumulator))
        distance <<= 1

    # Post-phase: return results to the surplus ranks.
    if rank < surplus:
        yield from comm.send(accumulator.tobytes(), rank + pof2, tag + 1)
    return accumulator


def gather(comm, data: bytes, root: int = 0) -> Generator:
    """Linear gather; root returns the list of all ranks' data."""
    size, rank = comm.size, comm.rank
    _check_root(root, size)
    tag = comm.next_collective_tag()
    if rank != root:
        yield from comm.send(data, root, tag)
        return None
    pieces: list[Optional[bytes]] = [None] * size
    pieces[root] = data
    for _ in range(size - 1):
        raw, status = yield from comm.recv(tag=tag)
        pieces[status.source] = raw
    return pieces


def scatter(comm, chunks: Optional[Sequence[bytes]], root: int = 0) -> Generator:
    """Linear scatter; every rank returns its chunk."""
    size, rank = comm.size, comm.rank
    _check_root(root, size)
    tag = comm.next_collective_tag()
    if rank == root:
        if chunks is None or len(chunks) != size:
            raise MpiError(f"scatter root needs exactly {size} chunks")
        for dest in range(size):
            if dest != root:
                yield from comm.send(chunks[dest], dest, tag)
        return chunks[root]
    raw, _status = yield from comm.recv(root, tag)
    return raw


def allgather(comm, data: bytes) -> Generator:
    """Ring allgather: n-1 steps, each forwarding the latest piece."""
    size, rank = comm.size, comm.rank
    pieces: list[Optional[bytes]] = [None] * size
    pieces[rank] = data
    tag = comm.next_collective_tag()
    right = (rank + 1) % size
    left = (rank - 1) % size
    carry = data
    for step in range(size - 1):
        raw, _status = yield from comm.sendrecv(carry, right, left,
                                                sendtag=tag, recvtag=tag)
        source = (rank - step - 1) % size
        pieces[source] = raw
        carry = raw
    return pieces


def alltoall(comm, chunks: Sequence[bytes]) -> Generator:
    """Pairwise-exchange alltoall; returns the chunks addressed to me."""
    size, rank = comm.size, comm.rank
    if len(chunks) != size:
        raise MpiError(f"alltoall needs exactly {size} chunks, got {len(chunks)}")
    tag = comm.next_collective_tag()
    result: list[Optional[bytes]] = [None] * size
    result[rank] = chunks[rank]
    for step in range(1, size):
        partner = rank ^ step if (size & (size - 1)) == 0 else (rank + step) % size
        source = partner if (size & (size - 1)) == 0 else (rank - step) % size
        raw, _status = yield from comm.sendrecv(chunks[partner], partner, source,
                                                sendtag=tag, recvtag=tag)
        result[source] = raw
    return result


def scan(comm, array: np.ndarray, op=None) -> Generator:
    """Inclusive prefix reduction: rank k returns op over ranks 0..k.

    Linear pipeline: receive the prefix from rank-1, fold in my value,
    forward to rank+1 — the textbook algorithm, O(n) latency but one
    message per link.  ``op`` defaults to ``numpy.add``.
    """
    import numpy as np
    if op is None:
        op = np.add
    size, rank = comm.size, comm.rank
    accumulator = np.array(array, copy=True)
    tag = comm.next_collective_tag()
    if rank > 0:
        raw, _status = yield from comm.recv(rank - 1, tag)
        accumulator = op(_as_array(raw, accumulator), accumulator)
    if rank < size - 1:
        yield from comm.send(accumulator.tobytes(), rank + 1, tag)
    return accumulator


def reduce_scatter(comm, array: np.ndarray, op=None) -> Generator:
    """Reduce ``array`` across ranks, scatter equal blocks of the result.

    ``array`` must have a leading dimension divisible by the communicator
    size; rank k returns block k of the elementwise reduction.  Implemented
    as reduce-to-root + scatter (simple and correct; the ring-optimised
    variant is a performance refinement the tests don't require).
    """
    import numpy as np
    size, rank = comm.size, comm.rank
    if array.shape[0] % size != 0:
        raise MpiError(
            f"reduce_scatter needs leading dimension divisible by {size}, "
            f"got shape {array.shape}"
        )
    total = yield from reduce(comm, array, op, root=0)
    block = array.shape[0] // size
    if rank == 0:
        chunks = [np.ascontiguousarray(total[k * block:(k + 1) * block]).tobytes()
                  for k in range(size)]
    else:
        chunks = None
    raw = yield from scatter(comm, chunks, root=0)
    return _as_array(raw, array[:block]).copy()


def _as_array(raw: bytes, like: np.ndarray) -> np.ndarray:
    """``raw`` viewed as an array of ``like``'s dtype and shape."""
    import numpy as np
    return np.frombuffer(raw, dtype=like.dtype).reshape(like.shape)


def _check_root(root: int, size: int) -> None:
    if not 0 <= root < size:
        raise MpiError(f"root {root} out of range for {size} ranks")
