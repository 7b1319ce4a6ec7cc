"""Dead links under the packets that bypass FM's credits: RDMA and NIC
collectives.

One-sided and NIC-offloaded traffic has no credit ledger and no handler
to notice a lost packet; the only thing that notices is the completion
wait.  Under a :class:`~repro.faults.LinkFault` that drops every packet,
each wait must end in a named :class:`RdmaStalledError` once it has
waited past :data:`CQ_STALL_LIMIT_NS` (checked at most one
:data:`IDLE_WAIT_CAP_NS` sleep later), never in a hang.
"""

import re

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.common import IDLE_WAIT_CAP_NS
from repro.core.rdma import NicCollectives, RdmaEndpoint
from repro.core.rdma.api import CQ_STALL_LIMIT_NS, RdmaStalledError
from repro.faults import FaultPlan, LinkFault


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
