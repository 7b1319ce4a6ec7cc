"""``max_bytes`` is a bound, not a reservation.

A receive's user buffer is allocated when an envelope has matched it, sized
by that envelope; until then the receive costs its queue entry.  The bound
is still enforced wherever a match can happen — the posted queue, the
unexpected queue, the RTS of a rendezvous, an RDMA advert — and ``None``
(the default) accepts any size.
"""

import tracemalloc

import pytest

from repro.upper.mpi.status import MpiError
from repro.upper.mpi.world import BINDINGS

from tests.golden.regen import mpi_world as make_world

SIZES = {"eager": 1_000, "rendezvous": 20_000}
LATE_NS = 400_000           # the sender's delay when the receive goes first


def exchange(binding, size, posted_first, max_bytes):
    """One ``size``-byte message from rank 0 to rank 1, whose receive is
    posted before the sender starts or once the message (its RTS, if a
    rendezvous) sits in the unexpected queue.  Returns the bytes received."""
    cluster, comms = make_world(binding)
    engine = comms[1].engine
    payload = bytes((3 * i) % 251 for i in range(size))
    got = []

    def sender(node):
        if posted_first:
            yield node.env.timeout(LATE_NS)
        yield from comms[0].send(payload, 1, tag=5)

    def receiver(node):
        while not posted_first and not engine.stats_unexpected:
            yield from engine.progress()
            yield node.env.timeout(1_000)
        request = yield from comms[1].irecv(0, 5, max_bytes=max_bytes)
        data, status = yield from comms[1].wait(request)
        assert (status.source, status.tag, status.count) == (0, 5, size)
        got.append(data)

    cluster.run([sender, receiver])
    assert engine.stats_unexpected == (0 if posted_first else 1)
    assert got == [payload]
    return got[0]


@pytest.mark.parametrize("protocol", SIZES)
@pytest.mark.parametrize("posted_first", [True, False],
                         ids=["posted-first", "unexpected-first"])
@pytest.mark.parametrize("binding", BINDINGS)
class TestEveryMatchPath:
    def test_default_bound_delivers_what_an_exact_bound_delivers(
            self, binding, posted_first, protocol):
        size = SIZES[protocol]
        assert (exchange(binding, size, posted_first, None)
                == exchange(binding, size, posted_first, size))

    def test_a_bound_one_byte_short_is_a_truncation(
            self, binding, posted_first, protocol):
        size = SIZES[protocol]
        with pytest.raises(MpiError, match=f"{size} bytes truncates receive "
                                           f"posted for {size - 1}"):
            exchange(binding, size, posted_first, size - 1)


def test_a_negative_bound_is_rejected():
    cluster, comms = make_world("fm2")

    def receiver(node):
        yield from comms[1].irecv(0, 5, max_bytes=-1)

    with pytest.raises(MpiError, match="negative receive size"):
        cluster.run([None, receiver])


def test_unmatched_default_receives_reserve_nothing():
    """64 posted receives nobody answers: at the 1 MiB default this was
    64 MB of zero-filled user buffers."""
    cluster, comms = make_world("fm2")

    def receiver(node):
        for tag in range(64):
            yield from comms[1].irecv(0, tag)

    tracemalloc.start()
    try:
        cluster.run([None, receiver])
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(comms[1].engine.posted) == 64
    assert peak < 256 * 1024
