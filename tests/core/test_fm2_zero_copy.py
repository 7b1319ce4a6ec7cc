"""Zero-copy payload plumbing must be invisible at the byte level.

The hot-path overhaul made packetization slice ``memoryview``s over the
sender's buffer and made reassembly alias packet payloads instead of staging
them through temporary buffers.  These property-style tests pin down the
observable contract: for every message size from 1 B to 64 KB, under every
piece/receive split, the bytes delivered are exactly the bytes sent — and
mutating the source buffer after the send API returns must not retroactively
change a message in flight (Packet construction is the snapshot point).
The CRC/CORRUPT fault-injection path is exercised on top of the same
plumbing: corruption is still detected and still deterministic.
"""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.common import FmCorruptionError
from repro.faults import FaultPlan, LinkFault
from repro.hardware.memory import Buffer
from repro.hardware.packet import Packet, PacketFlags, PacketHeader, compute_crc


def pattern(size: int, salt: int = 0) -> bytes:
    """Deterministic non-repeating-ish payload (distinct across salts)."""
    return bytes((i * 131 + salt) % 256 for i in range(size))


def collect_handler(log):
    def handler(fm, stream, src):
        data = yield from stream.receive_bytes(stream.msg_bytes)
        log.append(data)
    return handler


def chunked_handler(log, chunk: int):
    """Handler that consumes in fixed odd-sized receives (split-chunk path)."""
    def handler(fm, stream, src):
        parts = []
        remaining = stream.msg_bytes
        while remaining:
            take = min(chunk, remaining)
            parts.append((yield from stream.receive_bytes(take)))
            remaining -= take
        log.append(b"".join(parts))
    return handler


def register_all(cluster, handler):
    ids = {n.fm.register_handler(handler) for n in cluster.nodes}
    assert len(ids) == 1
    return ids.pop()


def receiver_until(count, log):
    def program(node):
        while len(log) < count:
            got = yield from node.fm.extract()
            if not got:
                yield node.env.timeout(500)
    return program


# 1 B .. 64 KB: below / at / above the packet payload, straddling multiples.
SIZES = [1, 2, 3, 16, 255, 1023, 1024, 1025, 2048, 4099, 16384, 65536]


class TestReassemblyByteIdentity:
    @pytest.mark.parametrize("size", SIZES)
    def test_single_piece_roundtrip(self, size):
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        log = []
        hid = register_all(cluster, collect_handler(log))
        payload = pattern(size)

        def sender(node):
            buf = node.buffer(size, fill=payload)
            yield from node.fm.send_buffer(1, hid, buf, size)

        cluster.run([sender, receiver_until(1, log)])
        assert log == [payload]

    @pytest.mark.parametrize("size", [1023, 1025, 4099, 65536])
    def test_odd_piece_splits_roundtrip(self, size):
        """Pieces that straddle packet boundaries exercise the fill path."""
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        log = []
        hid = register_all(cluster, collect_handler(log))
        payload = pattern(size, salt=7)
        pieces = []
        remaining, step = size, 1
        while remaining:
            take = min(step, remaining)
            pieces.append(take)
            remaining -= take
            step = step * 3 + 1          # 1, 4, 13, 40, ... odd growth
        assert sum(pieces) == size

        def sender(node):
            buf = node.buffer(size, fill=payload)
            stream = yield from node.fm.begin_message(1, size, hid)
            offset = 0
            for piece in pieces:
                yield from node.fm.send_piece(stream, buf, offset, piece)
                offset += piece
            yield from node.fm.end_message(stream)

        cluster.run([sender, receiver_until(1, log)])
        assert log == [payload]

    @pytest.mark.parametrize("chunk", [1, 3, 500, 1024, 1500])
    def test_split_receives_roundtrip(self, chunk):
        """Odd receive sizes exercise the memoryview chunk-split path."""
        size = 4099
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        log = []
        hid = register_all(cluster, chunked_handler(log, chunk))
        payload = pattern(size, salt=chunk)

        def sender(node):
            buf = node.buffer(size, fill=payload)
            yield from node.fm.send_buffer(1, hid, buf, size)

        cluster.run([sender, receiver_until(1, log)])
        assert log == [payload]

    def test_sender_mutation_after_send_does_not_leak(self):
        """The send APIs snapshot before yielding control back to the app.

        A program that reuses (overwrites) its send buffer between messages
        must not corrupt messages still in flight — the defining hazard of
        aliasing the user's buffer with memoryviews.
        """
        size = 3000
        n_messages = 8
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        log = []
        hid = register_all(cluster, collect_handler(log))
        payloads = [pattern(size, salt=i) for i in range(n_messages)]

        def sender(node):
            buf = node.buffer(size)
            for payload in payloads:
                buf.write(payload)            # overwrite the previous message
                yield from node.fm.send_buffer(1, hid, buf, size)
            buf.write(bytes(size))            # and scribble zeros at the end

        cluster.run([sender, receiver_until(n_messages, log)])
        assert log == payloads


class TestCorruptionPath:
    def test_crc_detects_corruption_over_zero_copy_path(self):
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        cluster.inject_faults(FaultPlan(episodes=(LinkFault(ber=1e-4),)))
        log = []
        hid = register_all(cluster, collect_handler(log))

        def sender(node):
            buf = node.buffer(1024, fill=pattern(1024))
            for _ in range(300):
                yield from node.fm.send_buffer(1, hid, buf, 1024)

        def receiver(node):
            while True:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        with pytest.raises(FmCorruptionError, match="no recovery"):
            cluster.run([sender, receiver], until_ns=10_000_000_000)
        # Everything delivered before the corruption was byte-exact.
        assert all(data == pattern(1024) for data in log)


class TestPacketPayloadContract:
    def test_memoryview_payload_is_snapshotted(self):
        """Packet freezes a view payload to bytes at construction."""
        buf = Buffer.from_bytes(pattern(64))
        header = PacketHeader(src=0, dest=1, handler_id=0, msg_id=0, seq=0,
                              msg_bytes=64, flags=PacketFlags.FIRST | PacketFlags.LAST)
        packet = Packet(header, buf.view(0, 64))
        buf.write(bytes(64))                  # mutate after construction
        assert type(packet.payload) is bytes
        assert packet.payload == pattern(64)
        assert packet.crc_ok()
        assert packet.crc == compute_crc(pattern(64))

    def test_view_rejects_out_of_range(self):
        buf = Buffer(16)
        with pytest.raises(IndexError):
            buf.view(8, 16)

    def test_view_is_read_only(self):
        buf = Buffer(16)
        view = buf.view(0, 8)
        with pytest.raises(TypeError):
            view[0] = 1

    def test_str_payload_rejected(self):
        header = PacketHeader(src=0, dest=1, handler_id=0, msg_id=0, seq=0,
                              msg_bytes=4)
        with pytest.raises(TypeError, match="bytes-like"):
            Packet(header, "text")

    def test_corrupt_flag_fails_crc(self):
        header = PacketHeader(src=0, dest=1, handler_id=0, msg_id=0, seq=0,
                              msg_bytes=4, flags=PacketFlags.CORRUPT)
        packet = Packet(header, memoryview(b"data"))
        assert not packet.crc_ok()
