"""What the three binding attributes mean, pinned.

The engine has one send path and one receive path; ``gather`` / ``steer``
/ ``paced`` on the binding decide which interface-forced copies run in
them.  Two consequences are asserted here: no attribute may change *what*
is delivered (only when, and after how many copies), and each attribute
accounts for exactly one copy.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.upper.mpi import ANY_SOURCE, ANY_TAG, MPI1_DEFAULT_COSTS
from repro.upper.mpi.bindings import NO_PACING_COSTS
from repro.upper.mpi.world import BINDINGS

from tests.golden.regen import mpi_world as make_world


# -- (a) same deliveries on every binding ---------------------------------------

SIZES = (0, 1, 24, 700, 5_000, 16_384, 16_385, 20_000)   # eager | rendezvous


def deliveries(name, messages, preposted, wildcard, late_ns):
    """Rank 0 sends ``messages`` (``(size, tag)``) in order; rank 1 starts
    ``late_ns`` late, pre-posts the first ``preposted`` receives, waits
    them, then blocks on the rest — receive ``wildcard`` on
    ``ANY_SOURCE`` / ``ANY_TAG``.  Returns what it got, in order."""
    cluster, comms = make_world(name)
    payloads = [bytes((11 * i + j) % 253 for j in range(size))
                for i, (size, _tag) in enumerate(messages)]
    got = []

    def selector(index):
        return ((ANY_SOURCE, ANY_TAG) if index == wildcard
                else (0, messages[index][1]))

    def sender(node):
        for payload, (_size, tag) in zip(payloads, messages):
            yield from comms[0].send(payload, 1, tag)

    def receiver(node):
        yield node.env.timeout(late_ns)
        requests = []
        for index in range(preposted):
            requests.append((yield from comms[1].irecv(
                *selector(index), max_bytes=messages[index][0])))
        for request in requests:
            data, status = yield from comms[1].wait(request)
            got.append((status.source, status.tag, data))
        for index in range(preposted, len(messages)):
            data, status = yield from comms[1].recv(
                *selector(index), max_bytes=messages[index][0])
            got.append((status.source, status.tag, data))

    cluster.run([sender, receiver])
    assert got == [(0, tag, payload)
                   for payload, (_size, tag) in zip(payloads, messages)]
    return got


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(messages=st.lists(st.tuples(st.sampled_from(SIZES),
                                   st.integers(min_value=0, max_value=2)),
                         min_size=1, max_size=5),
       preposted=st.integers(min_value=0, max_value=5),
       wildcard=st.integers(min_value=0, max_value=4),
       late_ns=st.sampled_from([0, 150_000, 2_000_000]))
# Found by this test on the five-copies code: an FM 2.x handler that had
# decided "unexpected" was parked mid-payload (extract budget spent) while
# its receive was posted, then queued the message where no posted receive
# looks — the receive hung (two messages) or took the *next* message (three).
@example(messages=[(5_000, 0)] * 2, preposted=0, wildcard=0, late_ns=150_000)
@example(messages=[(5_000, 0)] * 3, preposted=0, wildcard=0, late_ns=150_000)
def test_every_binding_delivers_the_same_sequence(messages, preposted,
                                                  wildcard, late_ns):
    preposted = min(preposted, len(messages))
    wildcard %= len(messages)
    reference = deliveries("fm2", messages, preposted, wildcard, late_ns)
    for name in BINDINGS:
        assert deliveries(name, messages, preposted, wildcard,
                          late_ns) == reference, name


# -- (b) one attribute, one copy --------------------------------------------------

PAYLOAD = 2_048
COUNT = 8


def copy_bytes(cluster):
    """Per node: ``{copy role: bytes}`` with the binding's label prefix
    dropped (``mpi2.deliver`` and ``ablation.deliver`` are both
    ``deliver``); the FM layer's own labels are kept whole."""
    out = []
    for node in cluster.nodes:
        roles = {}
        for label, nbytes in node.cpu.meter.by_label.items():
            prefix, _, role = label.partition(".")
            key = role if prefix in ("mpi1", "mpi2", "ablation") else label
            roles[key] = roles.get(key, 0) + nbytes
        out.append(roles)
    return out


def stream(name, costs=None):
    """``COUNT`` messages into a window of pre-posted receives."""
    cluster, comms = make_world(name, costs)

    def sender(node):
        for _ in range(COUNT):
            yield from comms[0].send(bytes(PAYLOAD), 1, tag=1)

    def receiver(node):
        requests = []
        for _ in range(COUNT):
            requests.append((yield from comms[1].irecv(0, 1, PAYLOAD)))
        yield from comms[1].waitall(requests)

    cluster.run([sender, receiver])
    return copy_bytes(cluster)


def burst(name, costs=None):
    """``COUNT`` messages land before any receive is posted."""
    cluster, comms = make_world(name, costs)
    engine = comms[1].engine

    def sender(node):
        for _ in range(COUNT):
            yield from comms[0].send(bytes(PAYLOAD), 1, tag=1)

    def receiver(node):
        while engine.stats_unexpected < COUNT:
            yield from engine.progress()
            yield node.env.timeout(1_000)
        for _ in range(COUNT):
            yield from comms[1].recv(0, 1, PAYLOAD)

    cluster.run([sender, receiver])
    return copy_bytes(cluster), engine.stats_spills


def plus(roles, **extra):
    return {**roles, **extra}


class TestOneAttributeOneCopy:
    def test_full_fm2_stream_copies_once_on_the_receiver_only(self):
        sender, receiver = stream("fm2")
        assert sender == {}
        assert receiver == {"fm2.deliver": COUNT * (PAYLOAD + 24)}

    def test_no_gather_adds_the_send_assembly_and_nothing_else(self):
        sender, receiver = stream("fm2")
        ablated_sender, ablated_receiver = stream("no-gather")
        assert ablated_sender == plus(sender, send_assembly=COUNT * PAYLOAD)
        assert ablated_receiver == receiver

    def test_no_steer_adds_the_delivery_copy_and_nothing_else(self):
        sender, receiver = stream("fm2")
        ablated_sender, ablated_receiver = stream("no-interleaving")
        assert ablated_sender == sender
        assert ablated_receiver == plus(receiver, deliver=COUNT * PAYLOAD)

    def test_no_pacing_adds_nothing_until_a_burst_overruns_the_pool(self):
        # Same costs on both sides, so only the attribute differs.
        assert (stream("no-pacing", NO_PACING_COSTS)
                == stream("fm2", NO_PACING_COSTS))
        (sender, receiver), spills = burst("fm2", NO_PACING_COSTS)
        (ablated_sender, ablated_receiver), ablated_spills = burst("no-pacing")
        overrun = COUNT - NO_PACING_COSTS.pool_slots
        assert (spills, ablated_spills) == (0, overrun)
        assert ablated_sender == sender
        assert ablated_receiver == plus(receiver,
                                        spill_copy=overrun * PAYLOAD)

    def test_fm1_is_all_three_plus_the_pool_copy(self):
        def mpi_only(roles):
            return {role: nbytes for role, nbytes in roles.items()
                    if "." not in role}

        total = COUNT * PAYLOAD
        sender, receiver = stream("fm1")
        assert mpi_only(sender) == {"send_assembly": total}
        assert mpi_only(receiver) == {"pool_copy": total, "deliver": total}
        (sender, receiver), spills = burst("fm1")
        overrun = COUNT - MPI1_DEFAULT_COSTS.pool_slots
        assert spills == overrun
        assert mpi_only(sender) == {"send_assembly": total}
        assert mpi_only(receiver) == {"pool_copy": total, "deliver": total,
                                      "spill_copy": overrun * PAYLOAD}
