"""FM 2.x edge cases: handler failures, concurrent send streams,
re-entrancy, statistics."""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.common import FmProtocolError


class TestHandlerFailures:
    def test_handler_exception_propagates_to_extract(self, fm2_cluster):
        def handler(fm, stream, src):
            yield from stream.receive_bytes(4)
            raise RuntimeError("handler blew up")

        hid = {n.fm.register_handler(handler) for n in fm2_cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(16)
            yield from node.fm.send_buffer(1, hid, buf, 16)

        def receiver(node):
            while True:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        with pytest.raises(RuntimeError, match="handler blew up"):
            fm2_cluster.run([sender, receiver], until_ns=100_000_000)

    def test_extractor_catches_a_mid_message_failure_and_carries_on(
            self, fm2_cluster):
        """The failed handler process is defused once and thrown into the
        process blocked in ``FM_extract``; nothing escapes ``run()``, the
        rest of the message is discarded and the next one is delivered."""
        nbytes = 3 * fm2_cluster.node(0).fm.params.packet_payload
        caught, delivered = [], []

        def bad(fm, stream, src):
            yield from stream.receive_bytes(8)
            raise RuntimeError("handler blew up")

        def good(fm, stream, src):
            delivered.append(len((yield from stream.receive_bytes(
                stream.msg_bytes))))

        bad_id = {n.fm.register_handler(bad) for n in fm2_cluster.nodes}.pop()
        good_id = {n.fm.register_handler(good) for n in fm2_cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(nbytes)
            yield from node.fm.send_buffer(1, bad_id, buf, nbytes)
            yield from node.fm.send_buffer(1, good_id, buf, nbytes)

        def receiver(node):
            while not delivered:
                try:
                    got = yield from node.fm.extract()
                except RuntimeError as exc:
                    caught.append(str(exc))
                    continue
                if not got:
                    yield from node.fm.idle_wait()

        fm2_cluster.run([sender, receiver], until_ns=100_000_000)
        assert caught == ["handler blew up"]
        assert delivered == [nbytes]
        assert fm2_cluster.node(1).fm.pending_handlers() == 0

    def test_a_failure_on_the_last_packet_still_retires_the_stream(
            self, fm2_cluster):
        """A handler that takes its whole message in and then raises leaves
        nothing behind once the extracting program has caught it: the
        stream is retired and the message counted, like any other."""
        caught = []

        def bad(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)
            raise RuntimeError("handler blew up")

        hid = {n.fm.register_handler(bad) for n in fm2_cluster.nodes}.pop()

        def sender(node):
            yield from node.fm.send_buffer(1, hid, node.buffer(16), 16)

        def receiver(node):
            while not caught:
                try:
                    yield from node.fm.extract()
                except RuntimeError as exc:
                    caught.append(str(exc))
                else:
                    yield from node.fm.idle_wait()

        fm2_cluster.run([sender, receiver], until_ns=100_000_000)
        fm = fm2_cluster.node(1).fm
        assert caught == ["handler blew up"]
        assert fm._streams == {}
        assert fm.stats_recv_messages == 1

    def test_handler_protocol_misuse_propagates(self, fm2_cluster):
        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes + 5)

        hid = {n.fm.register_handler(handler) for n in fm2_cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(8)
            yield from node.fm.send_buffer(1, hid, buf, 8)

        def receiver(node):
            while True:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        with pytest.raises(FmProtocolError, match="exceeds"):
            fm2_cluster.run([sender, receiver], until_ns=100_000_000)


    def test_handler_fed_its_own_message_from_a_nested_extract_fails_loud(
            self, fm2_cluster):
        """A handler may call ``FM_extract`` itself, but not to be handed the
        next packet of the message it is in the middle of: that is named at
        the feed, not left to end in the kernel's generic deadlock report."""
        def handler(fm, stream, src):
            yield from stream.receive_bytes(1024)
            yield fm.env.timeout(200_000)        # the rest arrives meanwhile
            yield from fm.extract()

        hid = {n.fm.register_handler(handler) for n in fm2_cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(4096)
            yield from node.fm.send_buffer(1, hid, buf, 4096)

        def receiver(node):
            while True:
                got = yield from node.fm.extract()
                if not got:
                    yield from node.fm.idle_wait()

        with pytest.raises(FmProtocolError) as err:
            fm2_cluster.run([sender, receiver], until_ns=100_000_000)
        message = str(err.value)
        assert "handler re-entered FM_extract" in message
        assert "node 1" in message and "(0, 0)" in message

    def test_failed_event_reaches_the_handler_not_the_extractor(
            self, fm2_cluster):
        """Whatever a handler waits on is waited on by the extracting
        process for it: a failed event is thrown into the handler, which may
        catch it and carry on, as when it was a process of its own."""
        env = fm2_cluster.env
        gate = env.event()
        seen = []

        def handler(fm, stream, src):
            try:
                yield gate
            except KeyError as exc:
                seen.append(repr(exc))
            seen.append(len((yield from stream.receive_bytes(
                stream.msg_bytes))))

        hid = {n.fm.register_handler(handler) for n in fm2_cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(64)
            yield from node.fm.send_buffer(1, hid, buf, 64)
            yield env.timeout(50_000)
            gate.fail(KeyError("gate"))

        def receiver(node):
            while len(seen) < 2:
                got = yield from node.fm.extract()
                if not got:
                    yield from node.fm.idle_wait()

        fm2_cluster.run([sender, receiver], until_ns=100_000_000)
        assert seen == ["KeyError('gate')", 64]
        assert fm2_cluster.node(1).fm.pending_handlers() == 0

    def test_second_extractor_leaves_a_mid_slice_handler_to_its_driver(
            self, fm2_cluster):
        """Two programs of one node extract.  While the first is inside a
        slice (the handler sleeps between two receives) the second is handed
        the message's next packets: it adds the bytes and returns, and the
        handler finds them when the first resumes it."""
        payload = fm2_cluster.fm_params.packet_payload
        nbytes = 4 * payload
        data = bytes(i % 251 for i in range(nbytes))
        got, second_fed = [], []

        def handler(fm, stream, src):
            head = yield from stream.receive_bytes(payload)
            yield fm.env.timeout(300_000)
            got.append(head + (yield from stream.receive_bytes(
                nbytes - payload)))

        hid = {n.fm.register_handler(handler) for n in fm2_cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(nbytes, fill=data)
            yield from node.fm.send_buffer(1, hid, buf, nbytes)

        def first(node):
            while not got:
                if not (yield from node.fm.extract()):
                    yield from node.fm.idle_wait()

        def second(node):
            yield node.env.timeout(100_000)
            while not got:
                fed = yield from node.fm.extract()
                if fed:
                    second_fed.append(fed)
                else:
                    yield node.env.timeout(10_000)

        fm2_cluster.spawn(second, 1, name="second@1")
        fm2_cluster.run([sender, first], until_ns=100_000_000)
        assert got == [data]
        assert sum(second_fed) == nbytes - payload
        fm = fm2_cluster.node(1).fm
        assert fm._streams == {} and fm.stats_recv_messages == 1


class TestInterleaving:
    def test_two_long_messages_progress_packet_by_packet(self):
        """Two senders, one long message each, handlers that take a packet's
        worth at a time: neither handler runs to the end before the other has
        started — each is resumed as its own packets arrive."""
        cluster = Cluster(3, machine=PPRO_FM2, fm_version=2)
        payload = cluster.fm_params.packet_payload
        packets = 8
        log = []

        def handler(fm, stream, src):
            while stream.remaining:
                chunk = yield from stream.receive_bytes(payload)
                assert chunk == bytes([src + 1]) * payload
                log.append(src)

        hid = {n.fm.register_handler(handler) for n in cluster.nodes}.pop()

        def make_sender(rank):
            def sender(node):
                buf = node.buffer(packets * payload,
                                  fill=bytes([rank + 1]) * (packets * payload))
                yield from node.fm.send_buffer(2, hid, buf, packets * payload)
            return sender

        def receiver(node):
            while len(log) < 2 * packets:
                if not (yield from node.fm.extract()):
                    yield from node.fm.idle_wait()

        cluster.run([make_sender(0), make_sender(1), receiver])
        assert log.count(0) == log.count(1) == packets
        switches = sum(a != b for a, b in zip(log, log[1:]))
        assert switches >= packets        # not one message, then the other
        assert cluster.node(2).fm._streams == {}


class TestConcurrentSendStreams:
    def test_two_open_streams_to_different_destinations(self):
        """FM 2.x allows interleaving pieces of messages to different
        destinations — each stream keeps its own packet state."""
        cluster = Cluster(3, machine=PPRO_FM2, fm_version=2)
        out = {}

        def handler(fm, stream, src):
            out[stream.fm.node_id] = (yield from
                                      stream.receive_bytes(stream.msg_bytes))

        hid = {n.fm.register_handler(handler) for n in cluster.nodes}.pop()
        payload_a = bytes([1]) * 1500
        payload_b = bytes([2]) * 1500

        def sender(node):
            buf_a = node.buffer(1500, fill=payload_a)
            buf_b = node.buffer(1500, fill=payload_b)
            stream_a = yield from node.fm.begin_message(1, 1500, hid)
            stream_b = yield from node.fm.begin_message(2, 1500, hid)
            # Interleave pieces of the two messages.
            yield from node.fm.send_piece(stream_a, buf_a, 0, 700)
            yield from node.fm.send_piece(stream_b, buf_b, 0, 900)
            yield from node.fm.send_piece(stream_a, buf_a, 700, 800)
            yield from node.fm.send_piece(stream_b, buf_b, 900, 600)
            yield from node.fm.end_message(stream_b)
            yield from node.fm.end_message(stream_a)

        def make_receiver(me):
            def receiver(node):
                while me not in out:
                    got = yield from node.fm.extract()
                    if not got:
                        yield node.env.timeout(500)
            return receiver

        cluster.run([sender, make_receiver(1), make_receiver(2)])
        assert out[1] == payload_a
        assert out[2] == payload_b

    def test_two_open_streams_to_same_destination(self, fm2_cluster):
        """Two interleaved messages to one destination demultiplex by
        message id on the receive side."""
        out = []

        def handler(fm, stream, src):
            out.append((yield from stream.receive_bytes(stream.msg_bytes)))

        hid = {n.fm.register_handler(handler)
               for n in fm2_cluster.nodes}.pop()
        first = bytes([7]) * 1200
        second = bytes([9]) * 1200

        def sender(node):
            buf1 = node.buffer(1200, fill=first)
            buf2 = node.buffer(1200, fill=second)
            s1 = yield from node.fm.begin_message(1, 1200, hid)
            s2 = yield from node.fm.begin_message(1, 1200, hid)
            yield from node.fm.send_piece(s1, buf1, 0, 600)
            yield from node.fm.send_piece(s2, buf2, 0, 1200)
            yield from node.fm.end_message(s2)
            yield from node.fm.send_piece(s1, buf1, 600, 600)
            yield from node.fm.end_message(s1)

        def receiver(node):
            while len(out) < 2:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        fm2_cluster.run([sender, receiver])
        assert sorted(out) == sorted([first, second])


class TestStatistics:
    def test_message_and_packet_counters(self, fm2_cluster):
        done = []

        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)
            done.append(1)

        hid = {n.fm.register_handler(handler)
               for n in fm2_cluster.nodes}.pop()
        packet = fm2_cluster.fm_params.packet_payload

        def sender(node):
            buf = node.buffer(packet * 3)
            for _ in range(4):
                yield from node.fm.send_buffer(1, hid, buf, packet * 3)

        def receiver(node):
            while len(done) < 4:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        fm2_cluster.run([sender, receiver])
        fm0, fm1 = fm2_cluster.node(0).fm, fm2_cluster.node(1).fm
        assert fm0.stats_sent_messages == 4
        assert fm0.stats_sent_packets >= 12      # 3 data packets x 4 (+credits)
        assert fm1.stats_recv_messages == 4
        assert fm1.stats_recv_packets == 12

    def test_repr_smoke(self, fm2_cluster):
        assert "FM2" in repr(fm2_cluster.node(0).fm)
        assert "Cluster" in repr(fm2_cluster)
        assert "Node" in repr(fm2_cluster.node(0))
