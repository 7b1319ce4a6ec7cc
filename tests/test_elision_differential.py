"""Stack differential for quiet-instant elision.

Every transport and workload kind is run twice — as shipped, and with the
three kernel primitives declining (``tests/_elision.py``) — and must produce
byte-identical reports, the same packet waypoints in the same order, and
event counts that differ by exactly the number of elided handshakes.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import cache

import pytest

from repro.bench.microbench import fm_stream
from repro.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.core.rdma import NicCollectives, RdmaEndpoint
from repro.hardware.packet import Packet
from repro.obs.export import dumps_deterministic
from repro.workloads.presets import PRESETS
from repro.workloads.runner import execute_scenario

from tests._elision import elision_declined


def stream(machine, fm_version):
    def run():
        cluster = Cluster(2, machine=machine, fm_version=fm_version)
        result = fm_stream(cluster, 1500, n_messages=40)
        return {"stream": asdict(result), "now": cluster.now}, cluster
    return run


def rdma_and_barriers():
    """Six puts and four gets between nodes 0 and 1, bracketed by two
    NIC-offloaded barriers across all eight nodes."""
    n, nbytes = 8, 3000
    cluster = Cluster(n, machine=PPRO_FM2, fm_version=2)
    endpoints = [RdmaEndpoint(node) for node in cluster.nodes]
    colls = [NicCollectives(node, n) for node in cluster.nodes]
    payload = bytes(i % 251 for i in range(nbytes))
    region = cluster.node(1).buffer(nbytes, name="region")
    local = cluster.node(0).buffer(nbytes, name="local")
    left_at = {}

    def make_program(rank):
        def program(node):
            if rank == 1:
                yield from endpoints[1].register(region)      # rkey 1
            yield from colls[rank].barrier()
            if rank == 0:
                source = node.buffer(nbytes, fill=payload)
                for _ in range(6):
                    yield from endpoints[0].rdma_put(1, 1, source, nbytes)
                for _ in range(4):
                    yield from endpoints[0].rdma_get(1, 1, local, nbytes)
            elif rank == 1:
                for _ in range(6):
                    yield from endpoints[1].wait_completion(
                        lambda c: c.kind == "write")
            yield from colls[rank].barrier()
            left_at[rank] = node.env.now
        return program

    cluster.run([make_program(rank) for rank in range(n)])
    assert region.read(0, nbytes) == payload == local.read(0, nbytes)
    return {"left_at": left_at, "now": cluster.now}, cluster


def preset(name, plan=None):
    def run():
        outcome = execute_scenario(PRESETS[name], plan=plan)
        return outcome.report, outcome.cluster
    return run


SCENARIOS = {
    "fm1-stream": stream(SPARC_FM1, 1),
    "fm2-stream": stream(PPRO_FM2, 2),
    "rdma-and-barriers": rdma_and_barriers,
    "rpc-sharded": preset("rpc-sharded"),
    "rpc-partitioned": preset("rpc-partitioned"),     # trunk links
    "dataflow-rollup": preset("dataflow-rollup"),
    "rpc-replicated-failover": preset(
        "rpc-replicated-failover",    # with its plan, the NicStall window
        plan=PRESETS.rows["rpc-replicated-failover"].plan),
}


def observed(run):
    """``run()`` with every packet waypoint logged in stamping order."""
    waypoints = []

    def stamp(packet, *waypoint):
        header = packet.header
        waypoints.append((*waypoint, header.src, header.dest,
                          header.msg_id, header.seq))
        packet.waypoints.append(waypoint)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Packet, "stamp", stamp)
        report, cluster = run()
    return dumps_deterministic(report), waypoints, cluster


@cache
def shipped(name):
    """The as-shipped run of a scenario: every differential compares its
    reference with this one, so it is run once for all of them."""
    return observed(SCENARIOS[name])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_report_same_waypoints_one_event_per_elision(name):
    report, waypoints, cluster = shipped(name)
    with elision_declined():
        ref_report, ref_waypoints, ref_cluster = observed(SCENARIOS[name])
    env, ref_env = cluster.env, ref_cluster.env
    assert report == ref_report
    assert waypoints == ref_waypoints and waypoints
    assert ref_env.elided == 0 < env.elided
    assert env.scheduled_events + env.elided == ref_env.scheduled_events

