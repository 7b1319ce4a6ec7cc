"""Packet headers, flags, CRC."""

import pytest

from repro.hardware.packet import (
    HEADER_BYTES,
    Packet,
    PacketFlags,
    PacketHeader,
    compute_crc,
)


def make_header(**overrides):
    defaults = dict(src=0, dest=1, handler_id=0, msg_id=0, seq=0, msg_bytes=10)
    defaults.update(overrides)
    return PacketHeader(**defaults)


class TestHeader:
    def test_flags_predicates(self):
        header = make_header(flags=PacketFlags.FIRST | PacketFlags.LAST)
        assert header.is_first and header.is_last and not header.is_control

    def test_control_flag(self):
        assert make_header(flags=PacketFlags.CONTROL).is_control

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            make_header(src=-1)

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            make_header(seq=-2)


class TestPacket:
    def test_wire_size_includes_header(self):
        packet = Packet(make_header(), b"12345")
        assert packet.wire_bytes == HEADER_BYTES + 5
        assert packet.payload_bytes == 5

    def test_payload_coerced_to_bytes(self):
        packet = Packet(make_header(), bytearray(b"abc"))
        assert isinstance(packet.payload, bytes)

    def test_non_bytes_payload_rejected(self):
        with pytest.raises(TypeError):
            Packet(make_header(), "string")

    def test_crc_auto_computed_and_valid(self):
        packet = Packet(make_header(), b"payload")
        assert packet.crc == compute_crc(b"payload")
        assert packet.crc_ok()

    def test_corrupt_flag_fails_crc(self):
        packet = Packet(make_header(), b"payload")
        packet.header.flags |= PacketFlags.CORRUPT
        assert not packet.crc_ok()

    def test_mismatched_crc_fails(self):
        packet = Packet(make_header(), b"payload")
        packet.payload = b"tampered"
        assert not packet.crc_ok()

    def test_empty_payload(self):
        packet = Packet(make_header(msg_bytes=0), b"")
        assert packet.wire_bytes == HEADER_BYTES
        assert packet.crc_ok()

    def test_crc_distinguishes_payloads(self):
        assert compute_crc(b"a") != compute_crc(b"b")


class TestSealedPayload:
    """A packet's CRC covers the payload bytes object made at construction;
    ``crc_ok`` tests the CORRUPT mark first and computes a CRC only for a
    payload that has since been replaced (``TestPacket`` has the CORRUPT
    mark on the sealed payload, a replacement of another length and
    ``wire_bytes``)."""

    def test_a_replaced_payload_of_the_same_length_fails(self):
        packet = Packet(make_header(), b"payload")
        packet.payload = b"paylaod"               # same length, other bytes
        assert not packet.crc_ok()
        assert packet.crc == compute_crc(b"payload")

    def test_crc_is_of_what_was_sent_from_a_view_that_changed(self):
        backing = bytearray(b"before!!")
        packet = Packet(make_header(), memoryview(backing)[:6])
        backing[:] = b"after!!!"                  # the sender reuses its buffer
        assert packet.payload == b"before"
        assert packet.crc == compute_crc(b"before")
        assert packet.crc_ok()

    def test_crc_is_read_only(self):
        packet = Packet(make_header(), b"payload")
        with pytest.raises(AttributeError):
            packet.crc = 0

    def test_packet_and_header_are_slotted(self):
        packet = Packet(make_header(), b"x")
        assert not hasattr(packet, "__dict__")
        assert not hasattr(packet.header, "__dict__")
