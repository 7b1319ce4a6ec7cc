"""Packet waypoints and the journey attribution tool."""

import pytest

from repro.bench.journey import Journey, packet_journey
from repro.bench.microbench import fm_pingpong
from repro.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1


class TestJourneyContainer:
    def test_stages_and_total(self):
        journey = Journey([("a", 0), ("b", 100), ("c", 250)])
        assert journey.total_ns == 250
        assert journey.stages() == [("a -> b", 100), ("b -> c", 150)]
        assert journey.longest_stage() == "b -> c"

    def test_needs_two_marks(self):
        with pytest.raises(ValueError):
            Journey([("only", 0)])

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            Journey([("a", 100), ("b", 50)])

    def test_render_has_total(self):
        journey = Journey([("a", 0), ("b", 1000)])
        text = journey.render()
        assert "TOTAL" in text
        assert "1.00" in text


class TestPacketJourney:
    @pytest.mark.parametrize("machine,version", [(SPARC_FM1, 1), (PPRO_FM2, 2)])
    def test_waypoints_in_canonical_order(self, machine, version):
        journey = packet_journey(Cluster(2, machine, version))
        names = [name for name, _t in journey.marks]
        assert names[0] == "api_enter"
        assert names[-1] == "handler_done"
        # Submit before inject before wire before forward before dma.
        order = {name: i for i, name in enumerate(names)}
        assert order["nic0.submit"] < order["nic0.inject"]
        assert order["nic0.inject"] < order["s0.forward"]
        assert order["s0.forward"] < order["nic1.dma_done"]

    def test_journey_total_close_to_pingpong_latency(self):
        journey = packet_journey(Cluster(2, PPRO_FM2, 2))
        pingpong = fm_pingpong(Cluster(2, PPRO_FM2, 2), 16,
                               iterations=10).one_way_latency_us
        # The two measure slightly different paths (the journey includes a
        # cold receiver's poll discovery; ping-pong spins hot) but must
        # agree within ~10%.
        assert journey.total_ns / 1000 == pytest.approx(pingpong, rel=0.10)

    def test_larger_message_takes_longer(self):
        small = packet_journey(Cluster(2, PPRO_FM2, 2), msg_bytes=16)
        large = packet_journey(Cluster(2, PPRO_FM2, 2), msg_bytes=1024)
        assert large.total_ns > small.total_ns


class TestWaypointStamps:
    def test_every_delivered_packet_carries_waypoints(self, fm2_cluster):
        seen = []

        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)

        hid = {n.fm.register_handler(handler)
               for n in fm2_cluster.nodes}.pop()
        nic = fm2_cluster.node(0).nic
        original = nic.submit
        nic.submit = lambda p: (seen.append(p), original(p))[1]

        def sender(node):
            buf = node.buffer(3000)
            yield from node.fm.send_buffer(1, hid, buf, 3000)

        def receiver(node):
            while node.fm.stats_recv_messages == 0:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        fm2_cluster.run([sender, receiver])
        assert len(seen) == 3    # 3 packets of 1024
        for packet in seen:
            locations = [waypoint[0] for waypoint in packet.waypoints]
            assert "nic0.submit" in locations
            assert "nic1.dma_done" in locations
            times = [waypoint[1] for waypoint in packet.waypoints]
            assert times == sorted(times)
