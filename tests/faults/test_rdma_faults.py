"""Dead links under the packets that bypass FM's credits: RDMA and NIC
collectives.

One-sided and NIC-offloaded traffic has no credit ledger and no handler
to notice a lost packet; the only thing that notices is the completion
wait.  Under a :class:`~repro.faults.LinkFault` that drops every packet,
each wait must end in a named :class:`RdmaStalledError` once it has
gone :data:`CQ_STALL_LIMIT_NS` without the NIC landing a chunk or posting
a completion (checked at most one :data:`IDLE_WAIT_CAP_NS` sleep later),
never in a hang; a wait whose bytes are still landing is not stalled.  Under bit errors
the error names what the waiting NIC counted instead of guessing at a
dead peer.  A :class:`~repro.faults.NicStall` only delays: a short one
slows a get or a barrier down, and one longer than the wait limit reads
as a dead peer, because no NIC counted anything wrong.
"""

import re
from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.common import IDLE_WAIT_CAP_NS
from repro.core.rdma import NicCollectives, RdmaEndpoint
from repro.core.rdma.api import CQ_STALL_LIMIT_NS, RdmaStalledError
from repro.faults import FaultPlan, LinkFault, NicStall
from repro.workloads.presets import PRESETS
from repro.workloads.runner import run_scenario


def dead_link_cluster(n, link):
    cluster = Cluster(n, machine=PPRO_FM2, fm_version=2)
    injector = cluster.inject_faults(FaultPlan(episodes=(
        LinkFault(link=link, drop_rate=1.0),)))
    return cluster, injector


def stalled_wait_ns(error):
    """How long the failed wait lasted, as the error reports it."""
    waited = int(re.search(r"waited (\d+) ns", str(error)).group(1))
    assert CQ_STALL_LIMIT_NS < waited <= CQ_STALL_LIMIT_NS + IDLE_WAIT_CAP_NS
    return waited


def test_get_whose_request_link_is_dead_stalls_loudly():
    cluster, injector = dead_link_cluster(2, "link:h0->s0")
    eps = [RdmaEndpoint(node) for node in cluster.nodes]
    region = cluster.node(1).buffer(4096)

    def target(node):
        yield from eps[1].register(region)          # rkey 1

    def initiator(node):
        yield 10_000                                # after registration
        yield from eps[0].rdma_get(1, 1, node.buffer(2048), 2048)

    with pytest.raises(RdmaStalledError, match="node 0 waited") as failure:
        cluster.run([initiator, target])
    waited = stalled_wait_ns(failure.value)
    assert cluster.now - 10_000 >= waited
    assert injector.counters["link.drop"] == 1      # the read request
    assert cluster.node(1).nic.rdma_reads_served == 0
    assert eps[0].stats_gets == 0


def test_target_waiting_for_a_lost_put_stalls_loudly():
    cluster, injector = dead_link_cluster(2, "link:h0->s0")
    eps = [RdmaEndpoint(node) for node in cluster.nodes]
    region = cluster.node(1).buffer(4096)
    wait_started = []

    def target(node):
        yield from eps[1].register(region)
        wait_started.append(node.env.now)
        yield from eps[1].wait_completion(lambda c: c.kind == "write")

    def initiator(node):
        yield 10_000
        yield from eps[0].rdma_put(1, 1, node.buffer(4096), 4096)

    with pytest.raises(RdmaStalledError, match="node 1 waited") as failure:
        cluster.run([initiator, target])
    assert cluster.now - wait_started[0] == stalled_wait_ns(failure.value)
    assert "(dead peer or unmatched region?; corrupt offload packets 0" \
        in str(failure.value)                       # it saw nothing
    assert injector.counters["link.drop"] == 4      # every 1 KB chunk
    assert eps[0].stats_puts == 1                   # locally complete
    assert cluster.node(1).nic.rdma_write_bytes == 0
    assert region.read(0, 4096) == bytes(4096)


def test_nic_barrier_with_a_dead_uplink_stalls_loudly():
    """Node 3 hears everyone and leaves; nobody hears node 3."""
    cluster, injector = dead_link_cluster(4, "link:h3->s0")
    colls = [NicCollectives(node, 4) for node in cluster.nodes]

    def program(node):
        yield from colls[node.node_id].barrier()

    with pytest.raises(RdmaStalledError, match="node 0 waited") as failure:
        cluster.run([program] * 4)
    stalled_wait_ns(failure.value)
    assert cluster.now == 100_022_524
    assert injector.counters["link.drop"] == 2
    assert [coll.stats_barriers for coll in colls] == [0, 0, 0, 1]


def test_put_over_a_noisy_link_names_the_corrupt_chunks():
    """Three of four 1 KB chunks fail their CRC at the target; the fourth
    lands but is not the last, so no completion is posted."""
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    injector = cluster.inject_faults(FaultPlan(episodes=(
        LinkFault(link="link:h0->s0", ber=1e-4),)))
    eps = [RdmaEndpoint(node) for node in cluster.nodes]
    region = cluster.node(1).buffer(4096)

    def target(node):
        yield from eps[1].register(region)
        yield from eps[1].wait_completion(lambda c: c.kind == "write")

    def initiator(node):
        yield 10_000
        source = node.buffer(4096, fill=b"\xab" * 4096)
        yield from eps[0].rdma_put(1, 1, source, 4096)

    with pytest.raises(RdmaStalledError, match="node 1 waited") as failure:
        cluster.run([initiator, target])
    stalled_wait_ns(failure.value)
    message = str(failure.value)
    assert ("corrupt offload packets 3, corrupt control packets 0, "
            "1024 B landed without a completion, unmatched drops 0"
            in message)
    assert "dead peer" not in message
    nic = cluster.node(1).nic
    assert injector.counters["link.corrupt"] == 3
    assert (nic.corrupt_offload_packets, nic.rdma_write_bytes) == (3, 1024)
    assert region.read(0, 4096).count(b"\xab") == 1024


def test_put_missing_its_first_chunk_posts_no_completion():
    """A drop window covers chunk 0 only; chunks 1-3, the last among them,
    land. Three quarters of a put is not a write: the target's CQ stays
    empty and the stall names the 3 072 B that landed."""
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    injector = cluster.inject_faults(FaultPlan(episodes=(
        LinkFault(link="link:h0->s0", start_ns=0, end_ns=28_000,
                  drop_rate=1.0),)))
    eps = [RdmaEndpoint(node) for node in cluster.nodes]
    region = cluster.node(1).buffer(4096)

    def target(node):
        yield from eps[1].register(region)
        yield from eps[1].wait_completion(lambda c: c.kind == "write")

    def initiator(node):
        yield 10_000
        source = node.buffer(4096, fill=b"\xab" * 4096)
        yield from eps[0].rdma_put(1, 1, source, 4096)

    with pytest.raises(RdmaStalledError, match="node 1 waited") as failure:
        cluster.run([initiator, target])
    stalled_wait_ns(failure.value)
    message = str(failure.value)
    assert ("corrupt offload packets 0, corrupt control packets 0, "
            "3072 B landed without a completion, unmatched drops 0"
            in message)
    assert "dead peer" not in message
    nic = cluster.node(1).nic
    assert injector.counters["link.drop"] == 1      # chunk 0 only
    assert nic.rdma_write_bytes == 3072
    assert nic.landed_without_completion() == 3072
    assert not nic.cq
    assert region.read(0, 4096) == bytes(1024) + b"\xab" * 3072


def test_get_over_a_noisy_response_link_names_the_corrupt_chunks():
    """The request reaches the target clean; all four 1 KB response chunks
    fail their CRC at the requester, so nothing lands and the requester's
    stall counts them."""
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    injector = cluster.inject_faults(FaultPlan(episodes=(
        LinkFault(link="link:s0->h0", ber=1e-3),)))
    eps = [RdmaEndpoint(node) for node in cluster.nodes]
    region = cluster.node(1).buffer(4096, fill=b"\xcd" * 4096)
    landing = cluster.node(0).buffer(4096)

    def target(node):
        yield from eps[1].register(region)

    def initiator(node):
        yield 10_000
        yield from eps[0].rdma_get(1, 1, landing, 4096)

    with pytest.raises(RdmaStalledError, match="node 0 waited") as failure:
        cluster.run([initiator, target])
    stalled_wait_ns(failure.value)
    message = str(failure.value)
    assert ("corrupt offload packets 4, corrupt control packets 0, "
            "0 B landed without a completion, unmatched drops 0"
            in message)
    assert "dead peer" not in message
    assert injector.counters["link.corrupt"] == 4
    assert cluster.node(1).nic.rdma_reads_served == 1
    assert landing.read(0, 4096) == bytes(4096)
    assert eps[0].stats_gets == 0


def test_bcast_missing_its_first_chunk_names_the_landed_bytes():
    """A drop window on the root's uplink covers chunk 0 to both of its
    children; chunks 1-3 reach every non-root node.  Each engine holds
    3 072 B of a 4 096 B broadcast, and the stall names them instead of
    guessing at a dead peer."""
    cluster = Cluster(4, machine=PPRO_FM2, fm_version=2)
    injector = cluster.inject_faults(FaultPlan(episodes=(
        LinkFault(link="link:h0->s0", start_ns=0, end_ns=30_000,
                  drop_rate=1.0),)))
    colls = [NicCollectives(node, 4) for node in cluster.nodes]
    buffers = [node.buffer(4096, fill=b"\xab" * 4096 if node.node_id == 0
                           else None) for node in cluster.nodes]

    def program(node):
        yield from colls[node.node_id].bcast(buffers[node.node_id], 4096, 0)

    with pytest.raises(RdmaStalledError, match="node 1 waited") as failure:
        cluster.run([program] * 4)
    stalled_wait_ns(failure.value)
    message = str(failure.value)
    assert ("corrupt offload packets 0, corrupt control packets 0, "
            "3072 B landed without a completion, unmatched drops 0"
            in message)
    assert "dead peer" not in message
    assert injector.counters["link.drop"] == 2      # chunk 0 to nodes 1, 2
    for node in cluster.nodes[1:]:
        assert node.nic.landed_without_completion() == 3072
        assert node.nic.collective_packets == 3
        assert buffers[node.node_id].read(0, 4096) == (
            bytes(1024) + b"\xab" * 3072)


def test_nic_barrier_over_a_noisy_link_names_the_corrupt_packets():
    """A barrier packet is a bare 16 B header, so at this BER each of node
    0's two sends is hit with p = 12 %: seed 1 hits the round-1 packet to
    node 2, which waits for it and counts it."""
    cluster = Cluster(4, machine=PPRO_FM2, fm_version=2)
    injector = cluster.inject_faults(FaultPlan(seed=1, episodes=(
        LinkFault(link="link:h0->s0", ber=1e-3),)))
    colls = [NicCollectives(node, 4) for node in cluster.nodes]

    def program(node):
        yield from colls[node.node_id].barrier()

    with pytest.raises(RdmaStalledError, match="node 2 waited") as failure:
        cluster.run([program] * 4)
    stalled_wait_ns(failure.value)
    message = str(failure.value)
    assert "corrupt offload packets 1, corrupt control packets 0" in message
    assert "dead peer" not in message
    assert injector.counters["link.corrupt"] == 1
    assert [coll.stats_barriers for coll in colls] == [1, 1, 0, 1]


def test_bcast_over_a_noisy_link_names_the_corrupt_chunks():
    """Every 1 KB chunk the root sends fails its CRC (p > 99.9 % at this
    BER); node 1 counts its four and lands nothing."""
    cluster = Cluster(4, machine=PPRO_FM2, fm_version=2)
    cluster.inject_faults(FaultPlan(episodes=(
        LinkFault(link="link:h0->s0", ber=1e-3),)))
    colls = [NicCollectives(node, 4) for node in cluster.nodes]
    buffers = [node.buffer(4096) for node in cluster.nodes]

    def program(node):
        yield from colls[node.node_id].bcast(buffers[node.node_id], 4096, 0)

    with pytest.raises(RdmaStalledError, match="node 1 waited") as failure:
        cluster.run([program] * 4)
    stalled_wait_ns(failure.value)
    message = str(failure.value)
    assert ("corrupt offload packets 4, corrupt control packets 0, "
            "0 B landed without a completion" in message)
    assert "dead peer" not in message


def stalled_nic_cluster(n, extra_ns):
    """Node 1's NIC takes ``extra_ns`` more per packet, on both firmware
    sides, for packets it starts in the first 200 us."""
    cluster = Cluster(n, machine=PPRO_FM2, fm_version=2)
    injector = cluster.inject_faults(FaultPlan(episodes=(
        NicStall(node=1, start_ns=0, end_ns=200_000, extra_ns=extra_ns),)))
    return cluster, injector


def stalled_get(cluster):
    """Node 0 gets 2 KB from node 1's registered region; returns the
    destination buffer and the list its completion time lands in."""
    eps = [RdmaEndpoint(node) for node in cluster.nodes]
    region = cluster.node(1).buffer(4096, fill=bytes(range(256)) * 16)
    dest = cluster.node(0).buffer(2048)
    done = []

    def target(node):
        yield from eps[1].register(region)          # rkey 1

    def initiator(node):
        yield 10_000                                # after registration
        yield from eps[0].rdma_get(1, 1, dest, 2048)
        done.append(node.env.now)

    return [initiator, target], dest, done


def nic_barrier(cluster):
    colls = [NicCollectives(node, cluster.n_nodes) for node in cluster.nodes]
    programs = [(lambda node: colls[node.node_id].barrier())] * len(colls)
    return programs, colls


def test_get_from_a_stalled_nic_is_late_but_whole():
    """Node 1 is charged three times, one after another: the read
    request's rx and the tx of each 1 KB response chunk.  The get ends at
    202 432 ns instead of 61 611 ns, with every byte in place."""
    cluster, injector = stalled_nic_cluster(2, 50_000)
    programs, dest, done = stalled_get(cluster)
    cluster.run(programs)
    assert done == [202_432]
    assert injector.counters["nic.stall_ns"] == 150_000
    assert dest.read(0, 2048) == bytes(range(256)) * 8


def test_nic_barrier_over_a_stalled_nic_is_late_but_completes():
    """Node 1 sends and receives one barrier packet per round, so it is
    charged four times: ``nic.stall_ns`` reads 200 000.  That is more than
    the whole barrier takes (112 024 ns), because a NIC's tx and rx
    firmware are separate loops that stall side by side: each round's tx
    and rx charges overlap, and the barrier ends exactly 100 us later than
    the 12 024 ns it takes unstalled."""
    cluster, injector = stalled_nic_cluster(4, 50_000)
    programs, colls = nic_barrier(cluster)
    cluster.run(programs)
    assert cluster.now == 112_024
    assert injector.counters["nic.stall_ns"] == 200_000
    assert [coll.stats_barriers for coll in colls] == [1] * 4


@pytest.mark.parametrize("operation", ["get", "barrier"])
def test_a_nic_stalled_past_the_wait_limit_reads_as_a_dead_peer(operation):
    """Held ``2 * CQ_STALL_LIMIT_NS`` per packet, node 1 answers after node
    0 has given up.  Nothing was corrupt, dropped or left half-landed, so
    all four counters read zero and the error can only guess "dead
    peer"."""
    cluster, _injector = stalled_nic_cluster(
        2 if operation == "get" else 4, 2 * CQ_STALL_LIMIT_NS)
    programs = (stalled_get(cluster)[0] if operation == "get"
                else nic_barrier(cluster)[0])
    with pytest.raises(RdmaStalledError,
                       match="node 0 waited 100020000 ns") as failure:
        cluster.run(programs)
    assert ("(dead peer or unmatched region?; corrupt offload packets 0, "
            "corrupt control packets 0, 0 B landed without a completion, "
            "unmatched drops 0)") in str(failure.value)


def test_a_put_still_landing_is_not_stalled(monkeypatch):
    """The stall clock counts time without progress, not the whole wait:
    with the limit at 50 us, one 64 KB put on a clean fabric takes longer
    than that to land, but each scan finds new chunks landed, so the
    target's wait runs to the completion."""
    monkeypatch.setattr("repro.core.rdma.api.CQ_STALL_LIMIT_NS", 50_000)
    puts = replace(PRESETS["stream-fm2"], pattern="rdma-stream",
                   msg_bytes=65_536, n_requests=1)
    result = run_scenario(puts)["results"]
    assert result["elapsed_ns"] > 50_000
    assert result["n_messages"] == 1



def test_a_stalled_barrier_names_the_round_and_the_peer_it_waits_on():
    """Eight nodes, node 1's NIC 40 ms slower per packet for the whole
    run.  A barrier packet carries no bytes, so nothing counts as progress
    and node 1's own host gives up first, in round 2 of 3 (0-based), still
    waiting on node 5's packet behind its stalled receive firmware.  The
    counters read zero, so the "dead peer?" guess stays; the engine adds
    what it waits on."""
    cluster = Cluster(8, machine=PPRO_FM2, fm_version=2)
    cluster.inject_faults(FaultPlan(episodes=(
        NicStall(node=1, extra_ns=40_000_000),)))
    programs, colls = nic_barrier(cluster)
    with pytest.raises(RdmaStalledError,
                       match="node 1 waited 100020000 ns") as failure:
        cluster.run(programs)
    assert cluster.now == 100_022_524
    message = str(failure.value)
    assert message.endswith("; cq depth 0; barrier round 2/3 waiting on node 5")
    assert "dead peer or unmatched region?" in message
    assert [coll.stats_barriers for coll in colls] == [1, 0, 1, 1, 1, 0, 1, 1]


def test_a_stalled_bcast_names_the_parent_it_waits_on():
    """Node 1's NIC sends nothing for twice the wait limit, so node 3, its
    child in the binomial tree rooted at 0, never gets the chunk: node 3
    gives up and its engine names its parent.  Nodes 1 and 2 have theirs."""
    cluster = Cluster(4, machine=PPRO_FM2, fm_version=2)
    cluster.inject_faults(FaultPlan(episodes=(
        NicStall(node=1, side="tx", extra_ns=2 * CQ_STALL_LIMIT_NS),)))
    colls = [NicCollectives(node, 4) for node in cluster.nodes]
    buffers = [node.buffer(1024) for node in cluster.nodes]

    def program(node):
        yield from colls[node.node_id].bcast(buffers[node.node_id], 1024, 0)

    with pytest.raises(RdmaStalledError, match="node 3 waited") as failure:
        cluster.run([program] * 4)
    assert str(failure.value).endswith("; cq depth 0; bcast waiting on parent 1")
    assert [coll.stats_bcasts for coll in colls] == [1, 1, 1, 0]
