"""Fault injection and robustness: what breaks, and how loudly.

FM's reliability is *constructed* from network properties (§3.1); these
tests verify both directions: with a clean network nothing is ever lost
under adversarial timing, and with injected faults the failure is
immediate and explicit (FM has no recovery machinery to mask bugs).
"""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.core.common import (
    FmCorruptionError,
    FmParams,
    FmStalledError,
)
from repro.faults import FaultPlan, LinkFault


def collect2(log):
    def handler(fm, stream, src):
        log.append((yield from stream.receive_bytes(stream.msg_bytes)))
    return handler


class TestCorruption:
    def test_fm2_detects_corruption(self):
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        cluster.inject_faults(FaultPlan(episodes=(LinkFault(ber=1e-4),)))
        log = []
        hid = {n.fm.register_handler(collect2(log)) for n in cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(1024)
            for _ in range(300):
                yield from node.fm.send_buffer(1, hid, buf, 1024)

        def receiver(node):
            while True:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        with pytest.raises(FmCorruptionError, match="no recovery"):
            cluster.run([sender, receiver], until_ns=10_000_000_000)

    def test_corruption_is_deterministic(self):
        """Same plan, same run: the failure time is identical."""
        def run_once():
            cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
            cluster.inject_faults(FaultPlan(episodes=(LinkFault(ber=1e-4),)))
            log = []
            hid = {n.fm.register_handler(collect2(log))
                   for n in cluster.nodes}.pop()

            def sender(node):
                buf = node.buffer(1024)
                for _ in range(300):
                    yield from node.fm.send_buffer(1, hid, buf, 1024)

            def receiver(node):
                while True:
                    got = yield from node.fm.extract()
                    if not got:
                        yield node.env.timeout(500)

            try:
                cluster.run([sender, receiver], until_ns=10_000_000_000)
            except FmCorruptionError:
                return cluster.now
            return None

        first, second = run_once(), run_once()
        assert first is not None
        assert first == second

    def test_clean_network_never_corrupts(self):
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        log = []
        hid = {n.fm.register_handler(collect2(log)) for n in cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(2048)
            for _ in range(50):
                yield from node.fm.send_buffer(1, hid, buf, 2048)

        def receiver(node):
            while len(log) < 50:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        cluster.run([sender, receiver])
        assert len(log) == 50


class TestStalls:
    def test_fm2_sender_stall_is_loud(self):
        params = FmParams(packet_payload=1024, credits_per_peer=2,
                          credit_batch=1, stall_limit_ns=500_000)
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2, fm_params=params)
        hid = {n.fm.register_handler(collect2([])) for n in cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(1024)
            for _ in range(10):   # receiver never extracts
                yield from node.fm.send_buffer(1, hid, buf, 1024)

        with pytest.raises(FmStalledError, match="deadlock"):
            cluster.run([sender, None])

    def test_stall_hook_rescues_bidirectional_exchange(self):
        """Two nodes flooding each other beyond their credit windows make
        progress only because the stall hook services the receive side —
        the interlayer-scheduling discipline (§4.1)."""
        params = FmParams(packet_payload=256, credits_per_peer=2,
                          credit_batch=1, stall_limit_ns=50_000_000)
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2, fm_params=params)
        received = [0, 0]

        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)
            received[stream.fm.node_id] += 1

        hid = {n.fm.register_handler(handler) for n in cluster.nodes}.pop()
        n_messages = 10

        def make_program(me: int, peer: int):
            def program(node):
                # Install the rescue hook: drain while stalled on credits.
                def hook():
                    got = yield from node.fm.extract(max_bytes=2048)
                node.fm.stall_hook = hook
                buf = node.buffer(1024)
                for _ in range(n_messages):
                    yield from node.fm.send_buffer(peer, hid, buf, 1024)
                while received[me] < n_messages:
                    got = yield from node.fm.extract()
                    if not got:
                        yield node.env.timeout(500)
            return program

        cluster.run([make_program(0, 1), make_program(1, 0)])
        assert received == [n_messages, n_messages]

    def test_without_hook_bidirectional_flood_deadlocks(self):
        params = FmParams(packet_payload=256, credits_per_peer=2,
                          credit_batch=1, stall_limit_ns=500_000)
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2, fm_params=params)
        hid = {n.fm.register_handler(collect2([])) for n in cluster.nodes}.pop()

        def make_program(peer: int):
            def program(node):
                buf = node.buffer(1024)
                for _ in range(10):
                    yield from node.fm.send_buffer(peer, hid, buf, 1024)
            return program

        with pytest.raises(FmStalledError):
            cluster.run([make_program(1), make_program(0)])


class TestBackpressureIntegrity:
    def test_receiver_that_never_extracts_loses_nothing(self):
        """Packets beyond the credit window wait at the sender; packets in
        flight land in the receive region; nothing is dropped anywhere."""
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        log = []
        hid = {n.fm.register_handler(collect2(log)) for n in cluster.nodes}.pop()
        payloads = [bytes([i]) * 700 for i in range(10)]

        def sender(node):
            for payload in payloads:
                buf = node.buffer(len(payload), fill=payload)
                yield from node.fm.send_buffer(1, hid, buf, len(payload))

        def lazy_receiver(node):
            yield node.env.timeout(2_000_000)   # 2 ms of neglect
            while len(log) < len(payloads):
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        cluster.run([sender, lazy_receiver])
        assert log == payloads

    def test_fm1_same_guarantee(self):
        cluster = Cluster(2, machine=SPARC_FM1, fm_version=1)
        log = []

        def handler(fm, src, staging, nbytes):
            log.append(staging.read(0, nbytes))
            return
            yield  # pragma: no cover

        hid = {n.fm.register_handler(handler) for n in cluster.nodes}.pop()
        payloads = [bytes([i]) * 300 for i in range(8)]

        def sender(node):
            for payload in payloads:
                buf = node.buffer(len(payload), fill=payload)
                yield from node.fm.send(1, hid, buf, len(payload))

        def lazy_receiver(node):
            yield node.env.timeout(2_000_000)
            while len(log) < len(payloads):
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        cluster.run([sender, lazy_receiver])
        assert log == payloads
