"""FM 1.x semantics: the Table 1 API."""

import pytest

from repro.cluster import Cluster
from repro.configs import SPARC_FM1
from repro.core.common import FmCorruptionError, FmProtocolError, FmStalledError
from repro.core.fm1.api import SEND4_BYTES
from repro.faults import FaultPlan, LinkFault


def sink_handler(log):
    def handler(fm, src, staging, nbytes):
        log.append((src, staging.read(0, nbytes)))
        return
        yield  # pragma: no cover - generator marker
    return handler


def receiver_until(count, log):
    def program(node):
        while len(log) < count:
            got = yield from node.fm.extract()
            if not got:
                yield node.env.timeout(500)
    return program


class TestSend:
    def test_single_packet_message(self, fm1_cluster):
        log = []
        hid = [n.fm.register_handler(sink_handler(log)) for n in fm1_cluster.nodes][0]
        payload = b"short message"
        def sender(node):
            buf = node.buffer(len(payload), fill=payload)
            yield from node.fm.send(1, hid, buf, len(payload))
        fm1_cluster.run([sender, receiver_until(1, log)])
        assert log == [(0, payload)]

    def test_multi_packet_reassembly(self, fm1_cluster):
        log = []
        hid = [n.fm.register_handler(sink_handler(log)) for n in fm1_cluster.nodes][0]
        payload = bytes(i % 251 for i in range(1000))   # 8 packets of 128
        def sender(node):
            buf = node.buffer(len(payload), fill=payload)
            yield from node.fm.send(1, hid, buf, len(payload))
        fm1_cluster.run([sender, receiver_until(1, log)])
        assert log[0][1] == payload

    def test_message_with_offset(self, fm1_cluster):
        log = []
        hid = [n.fm.register_handler(sink_handler(log)) for n in fm1_cluster.nodes][0]
        def sender(node):
            buf = node.buffer(20, fill=b"XXXXXhello worldYYYY")
            yield from node.fm.send(1, hid, buf, 11, offset=5)
        fm1_cluster.run([sender, receiver_until(1, log)])
        assert log[0][1] == b"hello world"

    def test_zero_byte_message_invokes_handler(self, fm1_cluster):
        log = []
        hid = [n.fm.register_handler(sink_handler(log)) for n in fm1_cluster.nodes][0]
        def sender(node):
            yield from node.fm.send(1, hid, node.buffer(0), 0)
        fm1_cluster.run([sender, receiver_until(1, log)])
        assert log == [(0, b"")]

    def test_send_4_exact_size(self, fm1_cluster):
        log = []
        hid = [n.fm.register_handler(sink_handler(log)) for n in fm1_cluster.nodes][0]
        words = b"0123456789abcdef"
        def sender(node):
            yield from node.fm.send_4(1, hid, words)
        fm1_cluster.run([sender, receiver_until(1, log)])
        assert log == [(0, words)]

    def test_send_4_wrong_size_rejected(self, fm1_cluster):
        node = fm1_cluster.node(0)
        hid = node.fm.register_handler(sink_handler([]))
        with pytest.raises(FmProtocolError, match=str(SEND4_BYTES)):
            next(node.fm.send_4(1, hid, b"short"))

    def test_self_send_rejected(self, fm1_cluster):
        node = fm1_cluster.node(0)
        hid = node.fm.register_handler(sink_handler([]))
        with pytest.raises(FmProtocolError, match="self"):
            next(node.fm.send(0, hid, node.buffer(4), 4))

    def test_unknown_handler_rejected(self, fm1_cluster):
        node = fm1_cluster.node(0)
        with pytest.raises(FmProtocolError, match="handler"):
            next(node.fm.send(1, 99, node.buffer(4), 4))

    def test_negative_size_rejected(self, fm1_cluster):
        node = fm1_cluster.node(0)
        hid = node.fm.register_handler(sink_handler([]))
        with pytest.raises(FmProtocolError):
            next(node.fm.send(1, hid, node.buffer(4), -1))


class TestOrdering:
    def test_per_sender_fifo(self, fm1_cluster):
        log = []
        hid = [n.fm.register_handler(sink_handler(log)) for n in fm1_cluster.nodes][0]
        messages = [bytes([i]) * (10 + i * 30) for i in range(8)]
        def sender(node):
            for m in messages:
                buf = node.buffer(len(m), fill=m)
                yield from node.fm.send(1, hid, buf, len(m))
        fm1_cluster.run([sender, receiver_until(8, log)])
        assert [entry[1] for entry in log] == messages

    def test_two_senders_interleave_but_each_fifo(self):
        cluster = Cluster(3, machine=SPARC_FM1, fm_version=1)
        log = []
        hid = [n.fm.register_handler(sink_handler(log)) for n in cluster.nodes][0]
        def make_sender(rank):
            def sender(node):
                for i in range(5):
                    m = bytes([rank]) + bytes([i]) * 200
                    buf = node.buffer(len(m), fill=m)
                    yield from node.fm.send(2, hid, buf, len(m))
            return sender
        cluster.run([make_sender(0), make_sender(1), receiver_until(10, log)])
        for rank in (0, 1):
            seq = [m[1] for (_s, m) in log if m[0] == rank]
            assert seq == sorted(seq)
            assert len(seq) == 5


class TestHandlers:
    def test_handler_runs_only_after_full_message(self, fm1_cluster):
        """FM 1.x delays the handler until the whole message has arrived."""
        sizes = []
        def handler(fm, src, staging, nbytes):
            # Every byte must already be present in the staging buffer.
            sizes.append((nbytes, len(staging.read(0, nbytes))))
            return
            yield  # pragma: no cover
        hid = [n.fm.register_handler(handler) for n in fm1_cluster.nodes][0]
        payload = bytes(700)
        def sender(node):
            buf = node.buffer(len(payload), fill=payload)
            yield from node.fm.send(1, hid, buf, len(payload))
        def receiver(node):
            while not sizes:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)
        fm1_cluster.run([sender, receiver])
        assert sizes == [(700, 700)]

    def test_handler_can_send_reply(self, fm1_cluster):
        replies = []
        def pong_handler(fm, src, staging, nbytes):
            replies.append(staging.read(0, nbytes))
            return
            yield  # pragma: no cover
        def ping_handler(fm, src, staging, nbytes):
            buf_out = type(staging)(4, fill=b"pong")
            yield from fm.send(src, pong_id, buf_out, 4)
        ids = [(n.fm.register_handler(ping_handler),
                n.fm.register_handler(pong_handler)) for n in fm1_cluster.nodes]
        ping_id, pong_id = ids[0]
        def initiator(node):
            buf = node.buffer(4, fill=b"ping")
            yield from node.fm.send(1, ping_id, buf, 4)
            while not replies:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)
        def responder(node):
            while node.fm.stats_recv_messages == 0:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)
        fm1_cluster.run([initiator, responder])
        assert replies == [b"pong"]

    def test_staging_copy_metered(self, fm1_cluster):
        log = []
        hid = [n.fm.register_handler(sink_handler(log)) for n in fm1_cluster.nodes][0]
        payload = bytes(512)
        def sender(node):
            buf = node.buffer(len(payload), fill=payload)
            yield from node.fm.send(1, hid, buf, len(payload))
        fm1_cluster.run([sender, receiver_until(1, log)])
        meter = fm1_cluster.node(1).cpu.meter
        assert meter.bytes_for("fm1.staging_copy") == 512


class TestFaults:
    def test_corruption_raises(self):
        cluster = Cluster(2, machine=SPARC_FM1, fm_version=1)
        cluster.inject_faults(FaultPlan(episodes=(LinkFault(ber=0.01),)))
        log = []
        hid = [n.fm.register_handler(sink_handler(log)) for n in cluster.nodes][0]
        def sender(node):
            buf = node.buffer(128)
            for _ in range(200):
                yield from node.fm.send(1, hid, buf, 128)
        def receiver(node):
            while True:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)
        with pytest.raises(FmCorruptionError):
            cluster.run([sender, receiver], until_ns=10_000_000_000)

    def test_credit_stall_detected(self):
        """A receiver that never extracts eventually stalls the sender."""
        from repro.core.common import FmParams
        params = FmParams(packet_payload=128, credits_per_peer=2,
                          credit_batch=1, stall_limit_ns=1_000_000)
        cluster = Cluster(2, machine=SPARC_FM1, fm_version=1, fm_params=params)
        hid = [n.fm.register_handler(sink_handler([])) for n in cluster.nodes][0]
        def sender(node):
            buf = node.buffer(128)
            for _ in range(10):
                yield from node.fm.send(1, hid, buf, 128)
        with pytest.raises(FmStalledError):
            cluster.run([sender, None])
