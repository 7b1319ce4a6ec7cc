"""Partition plans, boundary capture, and the mesh they cut along."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.hardware.link import BoundaryLink
from repro.hardware.packet import Packet, PacketHeader
from repro.hardware.params import LinkParams
from repro.hardware.topology import switch_mesh
from repro.parallel.partition import PartitionPlan, edge_id
from repro.simkernel.trace import Tracer
from repro.workloads.runner import MACHINES


LINK = MACHINES["ppro"].link
TRUNK = LinkParams(bandwidth=LINK.bandwidth, propagation_ns=8_000,
                   slots=LINK.slots)


def plan(n_hosts=8, n_groups=4, n_partitions=2, trunk=TRUNK):
    return PartitionPlan(switch_mesh(n_hosts, n_groups), n_partitions,
                         LINK, trunk)


class TestSwitchMesh:
    def test_shape(self):
        topo = switch_mesh(8, 4)
        assert topo.n_hosts == 8
        assert topo.n_switches == 4
        # Full mesh: every switch pair joined, hosts split 2 per switch.
        for j in range(4):
            neighbors = list(topo.switch_neighbors(j))
            switches = [n for n in neighbors if n[0] == "s"]
            hosts = [n for n in neighbors if n[0] == "h"]
            assert len(switches) == 3
            assert sorted(n[1] for n in hosts) == [2 * j, 2 * j + 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            switch_mesh(8, 0)
        with pytest.raises(ValueError):
            switch_mesh(1, 1)
        with pytest.raises(ValueError):
            switch_mesh(9, 2)   # uneven split


class TestPartitionPlan:
    def test_contiguous_switch_blocks_and_hosts_follow(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=2)
        assert [p.switch_partition(j) for j in range(4)] == [0, 0, 1, 1]
        assert p.hosts_of(0) == [0, 1, 2, 3]
        assert p.hosts_of(1) == [4, 5, 6, 7]

    def test_cut_edges_are_cross_partition_trunks_only(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=2)
        # Mesh over {0,1} x {2,3}: 4 undirected cuts = 8 directed edges;
        # intra-partition trunks (0-1, 2-3) are not cut.
        assert len(p.cut_edges) == 8
        assert edge_id(("s", 0), ("s", 2)) in p.cut_edges
        assert edge_id(("s", 0), ("s", 1)) not in p.cut_edges
        for eid, (src, dst) in p.cut_edges.items():
            assert p.owner(src) != p.owner(dst)
            assert p.dest_partition(eid) == p.owner(dst)

    def test_lookahead_is_min_cut_propagation(self):
        assert plan().lookahead_ns == TRUNK.propagation_ns
        assert plan(n_partitions=1).lookahead_ns == 0   # no cuts

    def test_fully_partitioned_mesh(self):
        p = plan(n_hosts=8, n_groups=4, n_partitions=4)
        # Every trunk is now a cut: 6 undirected = 12 directed edges.
        assert len(p.cut_edges) == 12
        assert p.hosts_of(3) == [6, 7]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan(n_partitions=0)
        with pytest.raises(ValueError):
            plan(n_groups=4, n_partitions=3)   # 4 switches over 3 parts
        with pytest.raises(ValueError):
            # Zero-latency trunks leave no lookahead window.
            plan(trunk=LinkParams(bandwidth=LINK.bandwidth,
                                  propagation_ns=1, slots=LINK.slots))

    def test_plans_are_identical_across_derivations(self):
        a, b = plan(), plan()
        assert a.cut_edges == b.cut_edges
        assert a.lookahead_ns == b.lookahead_ns


# -- the boundary, in-process -------------------------------------------------
# Forked workers execute all of this too, but out of reach of coverage and
# pdb; these run the same code in the test process.

N_MESSAGES, MSG_BYTES = 20, 1024


def planned_cluster(n_partitions=2, partition=0, exchange=None):
    """4 hosts on 2 trunk-joined crossbars (hosts 0,1 | 2,3), built from a
    plan the way a partition worker builds it."""
    p = plan(n_hosts=4, n_groups=2, n_partitions=n_partitions)
    return Cluster(4, topology=p.topology, trunk_params=TRUNK, plan=p,
                   partition=partition, exchange=exchange)


def stream_programs(cluster, src, dst, n_messages=N_MESSAGES):
    """An FM2 stream ``src -> dst`` over whichever of the two nodes this
    cluster built.  Returns ``(programs, received, waypoints)``:
    ``received`` collects ``(time, payload)`` per message, ``waypoints``
    ``(extracting node, journey)`` for every extracted packet."""
    received, waypoints = [], []

    def handler(fm, stream, _src):
        data = yield from stream.receive_bytes(stream.msg_bytes)
        received.append((fm.env.now, data))

    for node in cluster.nodes:
        hid = node.fm.register_handler(handler)
        process_packet = node.fm._process_packet

        def spy(packet, process_packet=process_packet, at=node.node_id):
            waypoints.append((at, tuple(packet.waypoints)))
            return process_packet(packet)
        node.fm._process_packet = spy

    def sender(node):
        buf = node.buffer(MSG_BYTES)
        for m in range(n_messages):
            buf.write(bytes((m + i) % 256 for i in range(MSG_BYTES)))
            yield from node.fm.send_buffer(dst, hid, buf, MSG_BYTES)

    def receiver(node):
        while len(received) < n_messages:
            if not (yield from node.fm.extract()):
                yield node.env.timeout(500)

    programs = [None] * cluster.n_nodes
    owned = {node.node_id for node in cluster.nodes}
    if src in owned:
        programs[src] = sender
    if dst in owned:
        programs[dst] = receiver
    return programs, received, waypoints


class TestOnePartitionIsTheSerialBuild:
    def test_identical_event_history_and_packet_journeys(self):
        def traced(cluster):
            tracer = Tracer().attach(cluster.env)
            programs, received, waypoints = stream_programs(cluster, 0, 3)
            cluster.run(programs)
            history = [(r.time, r.seq, r.priority, r.kind, r.name)
                       for r in tracer.records]
            return history, received, waypoints, cluster.now

        p = plan(n_hosts=4, n_groups=2)
        serial = traced(Cluster(4, topology=p.topology, trunk_params=TRUNK))
        planned = traced(planned_cluster(n_partitions=1))
        assert len(serial[1]) == N_MESSAGES
        assert len(serial[0]) > 1000
        assert planned == serial

    def test_partition_index_is_checked(self):
        p = plan(n_hosts=4, n_groups=2)
        with pytest.raises(ValueError, match="out of range"):
            Cluster(4, topology=p.topology, trunk_params=TRUNK, plan=p,
                    partition=2)


class TestBoundaryLink:
    PARAMS = LinkParams(bandwidth=160e6, propagation_ns=10_000, slots=2)

    def test_captures_at_serialisation_end_and_stalls_on_flight_window(
            self, env):
        outbox = []
        link = BoundaryLink(env, self.PARAMS, "s0->s1", outbox,
                            name="link:s0->s1")
        link.start()   # no connect(): the far side is another process

        def sender():
            for seq in range(5):
                header = PacketHeader(src=0, dest=1, handler_id=0, msg_id=0,
                                      seq=seq, msg_bytes=16)
                yield link.ingress.put(Packet(header, b"x" * 16))
        env.process(sender())
        env.run()

        # 32 wire bytes at 160 MB/s = 200 ns each.  One packet rides the
        # deliverer and `slots` more fill the flight window, so the fourth
        # capture finds it full and the serialiser stalls until the first
        # packet's arrival time (200 + 10_000) frees a slot.
        captures = [capture for _arrival, capture, _eid, _pkt in outbox]
        assert captures == [200, 400, 600, 800, 10_400]
        for arrival, capture, eid, packet in outbox:
            assert arrival == capture + self.PARAMS.propagation_ns
            assert eid == "s0->s1"
            assert packet.waypoints[-1] == ("link:s0->s1.wire", capture)
        assert [pkt.header.seq for *_rest, pkt in outbox] == [0, 1, 2, 3, 4]
        assert link.packets == 5
        # Never delivered locally: nothing to deliver into.
        assert link._target is None


class TestWindowExchange:
    def sent_across(self):
        """Partition 0 of 2 with one message sent 0 -> 2 (the far side)."""
        cluster = planned_cluster(partition=0)
        programs, _received, _wp = stream_programs(cluster, 0, 2,
                                                   n_messages=1)
        cluster.spawn(programs[0], 0)
        cluster.env.run(until=100_000)   # sent, serialised, captured
        return cluster

    def test_only_owned_nodes_are_built(self):
        cluster = planned_cluster(partition=1)
        assert [node.node_id for node in cluster.nodes] == [2, 3]
        assert cluster.n_nodes == 4
        assert cluster.node(3) is cluster.nodes[1]
        with pytest.raises(KeyError):
            cluster.node(0)
        with pytest.raises(ValueError, match="not in partition"):
            cluster.fabric.attach(0, cluster.node(2).nic)

    def test_drain_outbox_asserts_the_lookahead_invariant(self):
        fabric = self.sent_across().fabric
        items = list(fabric.outbox)
        assert items and {eid for _a, _c, eid, _p in items} == {"s0->s1"}
        for arrival, capture, _eid, _packet in items:
            assert arrival == capture + TRUNK.propagation_ns
        first_arrival = items[0][0]
        with pytest.raises(AssertionError, match="lookahead violation"):
            fabric.drain_outbox(first_arrival + 1)
        assert fabric.outbox == []
        fabric.outbox.extend(items)
        assert fabric.drain_outbox(first_arrival) == items

    def test_injected_packets_arrive_as_they_would_serially(self):
        p = plan(n_hosts=4, n_groups=2)
        serial = Cluster(4, topology=p.topology, trunk_params=TRUNK)
        programs, serial_received, serial_wp = stream_programs(
            serial, 0, 2, n_messages=1)
        serial.run(programs, until_ns=1_000_000)

        items = self.sent_across().fabric.drain_outbox(0)
        far = planned_cluster(partition=1)
        programs, received, waypoints = stream_programs(far, 0, 2,
                                                        n_messages=1)
        far.fabric.inject(items)
        far.run(programs, until_ns=1_000_000)
        assert received == serial_received
        # Node 2 extracts the data packets; their journeys (every link
        # and switch stamp, both sides of the cut) match the serial run's.
        assert waypoints == [wp for wp in serial_wp if wp[0] == 2]
        assert len(waypoints) == len(items)
        assert far.fabric.boundary_stalls == 0


class TestWindowedRun:
    def test_until_ns_is_refused_not_ignored(self):
        cluster = planned_cluster(exchange=lambda *args: (None, True))
        with pytest.raises(ValueError, match="until_ns"):
            cluster.run([None] * 4, until_ns=1_000)

    def test_no_cut_edges_is_the_plain_drain_plus_one_barrier(self):
        calls = []

        def exchange(window, outbox, done, t_done):
            calls.append((window, outbox, done, t_done))
            return None, True

        cluster = planned_cluster(n_partitions=1, exchange=exchange)
        programs, received, _wp = stream_programs(cluster, 0, 3)
        cluster.run(programs)
        assert len(received) == N_MESSAGES
        assert calls == [(0, [], True, cluster.now)]
        assert cluster.done_ns == cluster.now

    def test_windows_advance_by_the_lookahead_until_told_to_stop(self):
        ends = []

        def exchange(window, outbox, done, t_done):
            ends.append((window, cluster.now))
            return [], done   # the coordinator's rule, with one worker

        cluster = planned_cluster(partition=0, exchange=exchange)
        programs, received, _wp = stream_programs(cluster, 0, 1,
                                                  n_messages=1)
        cluster.run(programs)
        w = TRUNK.propagation_ns
        assert len(received) == 1
        # Stops at the first barrier past the local done instant.
        assert len(ends) == cluster.done_ns // w + 1 > 1
        assert ends == [(k, (k + 1) * w - 1) for k in range(len(ends))]
