"""FM 2.x semantics: streams, gather/scatter, handler multithreading,
receiver flow control (the Table 2 API)."""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.common import FmProtocolError
from repro.hardware.packet import HEADER_BYTES


def collect_handler(log):
    """Handler that reads the whole message in one receive."""
    def handler(fm, stream, src):
        data = yield from stream.receive_bytes(stream.msg_bytes)
        log.append((src, data))
    return handler


def receiver_until(count, log, budget=None):
    def program(node):
        while len(log) < count:
            got = yield from node.fm.extract(budget)
            if not got:
                yield node.env.timeout(500)
    return program


def register_all(cluster, handler):
    ids = {n.fm.register_handler(handler) for n in cluster.nodes}
    assert len(ids) == 1
    return ids.pop()


class TestGather:
    def test_single_piece(self, fm2_cluster):
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        payload = b"one-piece message"
        def sender(node):
            buf = node.buffer(len(payload), fill=payload)
            yield from node.fm.send_buffer(1, hid, buf, len(payload))
        fm2_cluster.run([sender, receiver_until(1, log)])
        assert log == [(0, payload)]

    def test_many_odd_pieces(self, fm2_cluster):
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        payload = bytes(i % 251 for i in range(3000))
        pieces = [1, 7, 100, 892, 1500, 500]
        assert sum(pieces) == 3000
        def sender(node):
            buf = node.buffer(3000, fill=payload)
            stream = yield from node.fm.begin_message(1, 3000, hid)
            offset = 0
            for piece in pieces:
                yield from node.fm.send_piece(stream, buf, offset, piece)
                offset += piece
            yield from node.fm.end_message(stream)
        fm2_cluster.run([sender, receiver_until(1, log)])
        assert log[0][1] == payload

    def test_piece_overflow_rejected(self, fm2_cluster):
        node = fm2_cluster.node(0)
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        def sender(n):
            buf = n.buffer(100)
            stream = yield from n.fm.begin_message(1, 50, hid)
            yield from n.fm.send_piece(stream, buf, 0, 51)
        with pytest.raises(FmProtocolError, match="overflow"):
            fm2_cluster.run([sender, None])

    def test_end_before_declared_size_rejected(self, fm2_cluster):
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        def sender(n):
            buf = n.buffer(10)
            stream = yield from n.fm.begin_message(1, 20, hid)
            yield from n.fm.send_piece(stream, buf, 0, 10)
            yield from n.fm.end_message(stream)
        with pytest.raises(FmProtocolError, match="unsent"):
            fm2_cluster.run([sender, None])

    def test_use_after_end_rejected(self, fm2_cluster):
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        def sender(n):
            buf = n.buffer(4)
            stream = yield from n.fm.begin_message(1, 4, hid)
            yield from n.fm.send_piece(stream, buf, 0, 4)
            yield from n.fm.end_message(stream)
            yield from n.fm.send_piece(stream, buf, 0, 4)
        with pytest.raises(FmProtocolError, match="after FM_end_message"):
            fm2_cluster.run([sender, None])

    def test_exact_packet_multiple_no_empty_trailer(self, fm2_cluster):
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        size = fm2_cluster.fm_params.packet_payload * 2
        def sender(node):
            buf = node.buffer(size)
            yield from node.fm.send_buffer(1, hid, buf, size)
        fm2_cluster.run([sender, receiver_until(1, log)])
        assert fm2_cluster.node(0).fm.stats_sent_packets == 2

    def test_zero_byte_message(self, fm2_cluster):
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        def sender(node):
            yield from node.fm.send_buffer(1, hid, node.buffer(0), 0)
        fm2_cluster.run([sender, receiver_until(1, log)])
        assert log == [(0, b"")]

    def test_gather_performs_no_assembly_copy(self, fm2_cluster):
        """The send path must not copy user data in host memory."""
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        payload = bytes(2000)
        def sender(node):
            buf = node.buffer(2000, fill=payload)
            stream = yield from node.fm.begin_message(1, 2000, hid)
            yield from node.fm.send_piece(stream, buf, 0, 1000)
            yield from node.fm.send_piece(stream, buf, 1000, 1000)
            yield from node.fm.end_message(stream)
        fm2_cluster.run([sender, receiver_until(1, log)])
        assert fm2_cluster.node(0).cpu.meter.copies == 0

    @pytest.mark.parametrize("header_bytes, payload_bytes",
                             [(16, 48), (24, 4096), (8, 0)])
    def test_send_gather_is_the_spelled_out_sequence(self, header_bytes,
                                                     payload_bytes):
        """``send_gather([header, payload])`` ends at the same simulated
        instant, on the same packets and copy-meter bytes, as
        ``begin_message`` / ``send_piece`` x 2 / ``end_message`` — a
        zero-length piece included: it still costs its ``FM_send_piece``."""
        def run(send):
            cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
            log = []
            hid = register_all(cluster, collect_handler(log))
            def sender(node):
                pieces = [node.buffer(header_bytes, fill=b"h" * header_bytes),
                          node.buffer(payload_bytes, fill=b"p" * payload_bytes)]
                yield from send(node.fm, hid, pieces)
                return node.env.now
            sent_at, _ = cluster.run([sender, receiver_until(1, log)])
            meters = [dict(node.cpu.meter.by_label) for node in cluster.nodes]
            return (log, sent_at, cluster.now,
                    cluster.node(0).fm.stats_sent_packets, meters)

        def spelled_out(fm, hid, pieces):
            header, payload = pieces
            stream = yield from fm.begin_message(
                1, header.size + payload.size, hid)
            yield from fm.send_piece(stream, header, 0, header.size)
            yield from fm.send_piece(stream, payload, 0, payload.size)
            yield from fm.end_message(stream)

        assert run(lambda fm, hid, pieces: fm.send_gather(1, hid, pieces)) \
            == run(spelled_out)


class TestScatter:
    def test_piecewise_receive(self, fm2_cluster):
        parts = []
        def handler(fm, stream, src):
            head = yield from stream.receive_bytes(4)
            mid = yield from stream.receive_bytes(100)
            tail = yield from stream.receive_bytes(stream.msg_bytes - 104)
            parts.append((head, mid, tail))
        hid = register_all(fm2_cluster, handler)
        payload = bytes(range(256)) * 2
        def sender(node):
            buf = node.buffer(len(payload), fill=payload)
            yield from node.fm.send_buffer(1, hid, buf, len(payload))
        fm2_cluster.run([sender, receiver_until(1, parts)])
        head, mid, tail = parts[0]
        assert head + mid + tail == payload

    def test_piece_sizes_need_not_match(self, fm2_cluster):
        """Sender composes in N pieces, receiver decomposes in M."""
        out = []
        def handler(fm, stream, src):
            chunks = []
            for size in (10, 1, 989, 2000):
                chunks.append((yield from stream.receive_bytes(size)))
            out.append(b"".join(chunks))
        hid = register_all(fm2_cluster, handler)
        payload = bytes(i % 249 for i in range(3000))
        def sender(node):
            buf = node.buffer(3000, fill=payload)
            stream = yield from node.fm.begin_message(1, 3000, hid)
            yield from node.fm.send_piece(stream, buf, 0, 1500)
            yield from node.fm.send_piece(stream, buf, 1500, 1500)
            yield from node.fm.end_message(stream)
        fm2_cluster.run([sender, receiver_until(1, out)])
        assert out[0] == payload

    def test_receive_beyond_message_rejected(self, fm2_cluster):
        failures = []
        def handler(fm, stream, src):
            try:
                yield from stream.receive_bytes(stream.msg_bytes + 1)
            except FmProtocolError as exc:
                failures.append(str(exc))
        hid = register_all(fm2_cluster, handler)
        def sender(node):
            buf = node.buffer(10)
            yield from node.fm.send_buffer(1, hid, buf, 10)
        fm2_cluster.run([sender, receiver_until(1, failures)])
        assert "exceeds" in failures[0]

    def test_under_consuming_handler_discards_rest(self, fm2_cluster):
        got = []
        def handler(fm, stream, src):
            got.append((yield from stream.receive_bytes(8)))
        hid = register_all(fm2_cluster, handler)
        def sender(node):
            buf = node.buffer(500, fill=bytes(range(250)) * 2)
            yield from node.fm.send_buffer(1, hid, buf, 500)
        fm2_cluster.run([sender, receiver_until(1, got)])
        assert got[0] == bytes(range(8))
        fm = fm2_cluster.node(1).fm
        assert fm.stats_recv_messages == 1
        assert fm.pending_handlers() == 0

    def test_delivery_copy_metered_once(self, fm2_cluster):
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        def sender(node):
            buf = node.buffer(1500)
            yield from node.fm.send_buffer(1, hid, buf, 1500)
        fm2_cluster.run([sender, receiver_until(1, log)])
        meter = fm2_cluster.node(1).cpu.meter
        assert meter.bytes_for("fm2.deliver") == 1500


class TestHandlerMultithreading:
    def test_handler_starts_before_message_complete(self, fm2_cluster):
        """The paper's headline 2.x behaviour: handler execution begins on
        the first packet, not after full reassembly."""
        events = []
        def handler(fm, stream, src):
            events.append(("handler-start", stream.arrived_bytes,
                           stream.msg_bytes))
            yield from stream.receive_bytes(stream.msg_bytes)
            events.append(("handler-end", stream.arrived_bytes,
                           stream.msg_bytes))
        hid = register_all(fm2_cluster, handler)
        size = fm2_cluster.fm_params.packet_payload * 4
        def sender(node):
            buf = node.buffer(size)
            yield from node.fm.send_buffer(1, hid, buf, size)
        fm2_cluster.run([sender, receiver_until(1, events) if False else
                         receiver_until(2, events)])
        start = events[0]
        assert start[0] == "handler-start"
        assert start[1] < start[2]           # strictly before completion

    def test_interleaved_messages_from_two_senders(self):
        cluster = Cluster(3, machine=PPRO_FM2, fm_version=2)
        log = []
        def handler(fm, stream, src):
            data = yield from stream.receive_bytes(stream.msg_bytes)
            log.append((src, data))
        ids = {n.fm.register_handler(handler) for n in cluster.nodes}
        hid = ids.pop()
        big = cluster.fm_params.packet_payload * 6
        def make_sender(rank):
            def sender(node):
                payload = bytes([rank]) * big
                buf = node.buffer(big, fill=payload)
                yield from node.fm.send_buffer(2, hid, buf, big)
            return sender
        def receiver(node):
            while len(log) < 2:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)
        cluster.run([make_sender(0), make_sender(1), receiver])
        by_src = {src: data for src, data in log}
        assert by_src[0] == bytes([0]) * big
        assert by_src[1] == bytes([1]) * big

    def test_long_message_does_not_block_short_one(self):
        """§4.1: 'one long message from one sender does not block other
        senders' — the short message completes while the long one is still
        in flight."""
        cluster = Cluster(3, machine=PPRO_FM2, fm_version=2)
        completions = []
        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)
            completions.append((src, fm.env.now))
        hid = {n.fm.register_handler(handler) for n in cluster.nodes}.pop()
        long_size = cluster.fm_params.packet_payload * 12
        def long_sender(node):
            buf = node.buffer(long_size)
            yield from node.fm.send_buffer(2, hid, buf, long_size)
        def short_sender(node):
            yield node.env.timeout(5_000)   # start after the long send
            buf = node.buffer(16)
            yield from node.fm.send_buffer(2, hid, buf, 16)
        def receiver(node):
            while len(completions) < 2:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)
        cluster.run([long_sender, short_sender, receiver])
        order = [src for src, _t in completions]
        assert order[0] == 1    # the short message finished first

    def test_multiple_handlers_pending(self, fm2_cluster):
        peak_pending = []
        def handler(fm, stream, src):
            peak_pending.append(fm.pending_handlers())
            yield from stream.receive_bytes(stream.msg_bytes)
        hid = register_all(fm2_cluster, handler)
        size = fm2_cluster.fm_params.packet_payload * 3
        def sender(node):
            buf = node.buffer(size)
            for _ in range(4):
                yield from node.fm.send_buffer(1, hid, buf, size)
        done = []
        def receiver(node):
            while node.fm.stats_recv_messages < 4:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)
            done.append(True)
        fm2_cluster.run([sender, receiver])
        assert len(peak_pending) == 4


class TestReceiverFlowControl:
    def test_budget_rounds_to_packet_boundary(self, fm2_cluster):
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        packet = fm2_cluster.fm_params.packet_payload
        size = packet * 4
        extracted_per_call = []
        def sender(node):
            buf = node.buffer(size)
            yield from node.fm.send_buffer(1, hid, buf, size)
        def receiver(node):
            while not log:
                got = yield from node.fm.extract(max_bytes=1)
                if got:
                    extracted_per_call.append(got)
                else:
                    yield node.env.timeout(500)
        fm2_cluster.run([sender, receiver])
        # A budget of 1 byte still processes one whole packet, never more.
        assert all(chunk == packet for chunk in extracted_per_call)
        assert len(extracted_per_call) == 4

    def test_unextracted_data_stays_queued(self, fm2_cluster):
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        packet = fm2_cluster.fm_params.packet_payload
        size = packet * 6
        def sender(node):
            buf = node.buffer(size)
            yield from node.fm.send_buffer(1, hid, buf, size)
        remaining = []
        def receiver(node):
            # Wait for everything to arrive, extract only half the packets.
            yield node.env.timeout(200_000)
            yield from node.fm.extract(max_bytes=packet * 3)
            remaining.append(node.fm.nic.recv_region.level)
            while not log:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)
        fm2_cluster.run([sender, receiver])
        assert remaining[0] > 0
        assert log[0][1] == bytes(size)

    def test_zero_budget_extracts_nothing(self, fm2_cluster):
        log = []
        hid = register_all(fm2_cluster, collect_handler(log))
        def sender(node):
            buf = node.buffer(64)
            yield from node.fm.send_buffer(1, hid, buf, 64)
        counts = []
        def receiver(node):
            yield node.env.timeout(100_000)
            counts.append((yield from node.fm.extract(max_bytes=0)))
            while not log:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)
        fm2_cluster.run([sender, receiver])
        assert counts == [0]

    def test_negative_budget_rejected(self, fm2_cluster):
        node = fm2_cluster.node(1)
        with pytest.raises(FmProtocolError):
            next(node.fm.extract(max_bytes=-1))


class TestValidation:
    def test_self_send_rejected(self, fm2_cluster):
        node = fm2_cluster.node(0)
        hid = node.fm.register_handler(lambda fm, s, src: iter(()))
        with pytest.raises(FmProtocolError, match="self"):
            next(node.fm.begin_message(0, 10, hid))

    def test_negative_message_size_rejected(self, fm2_cluster):
        node = fm2_cluster.node(0)
        hid = node.fm.register_handler(lambda fm, s, src: iter(()))
        with pytest.raises(FmProtocolError):
            next(node.fm.begin_message(1, -5, hid))

    def test_unknown_handler_rejected(self, fm2_cluster):
        node = fm2_cluster.node(0)
        with pytest.raises(FmProtocolError, match="handler"):
            next(node.fm.begin_message(1, 10, 42))
