"""Software-reliability shim: correctness on clean and lossy networks."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.ext import SwRelParams, SwReliablePair
from repro.faults import FaultPlan, LinkFault


def lossy_cluster(ber=0.0, drop_rate=0.0):
    """Two FM 2.x nodes whose every link errs for the whole run."""
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    if ber or drop_rate:
        cluster.inject_faults(FaultPlan(episodes=(
            LinkFault(ber=ber, drop_rate=drop_rate),)))
    return cluster


def run_transfer(payloads, ber=0.0, drop_rate=0.0, params=None):
    cluster = lossy_cluster(ber, drop_rate)
    pair = SwReliablePair(cluster, 0, 1, params=params)
    got = []
    sender_done = [False]

    def sender(node):
        for payload in payloads:
            yield from pair.send_message(payload)
        sender_done[0] = True

    def receiver(node):
        # The last-ACK problem: the receiver must keep servicing until the
        # sender's window is fully acknowledged, or a lost final ACK leaves
        # the sender retransmitting into a dead peer.
        while (len(got) < len(payloads)
               or not sender_done[0] or pair.outstanding):
            messages = yield from pair.deliver()
            got.extend(messages)
            if not messages:
                yield node.env.timeout(300)

    cluster.run([sender, receiver])
    return got, pair, cluster


class TestCleanNetwork:
    def test_single_message(self):
        got, pair, _cluster = run_transfer([b"hello reliable world"])
        assert got == [b"hello reliable world"]
        assert pair.retransmissions == 0

    def test_multi_packet_messages_in_order(self):
        payloads = [bytes([i]) * 2000 for i in range(8)]
        got, pair, _cluster = run_transfer(payloads)
        assert got == payloads
        assert pair.drops == 0

    def test_empty_message(self):
        got, _pair, _cluster = run_transfer([b""])
        assert got == [b""]

    def test_source_buffering_is_metered(self):
        """The copy FM never pays: every payload byte is copied into the
        retransmit buffer before transmission."""
        payloads = [bytes(3000)]
        _got, _pair, cluster = run_transfer(payloads)
        meter = cluster.node(0).cpu.meter
        assert meter.bytes_for("swrel.source_copy") == 3000

    def test_window_respected(self):
        params = SwRelParams(payload_bytes=256, window=2)
        payloads = [bytes(4096)]
        got, pair, _cluster = run_transfer(payloads, params=params)
        assert got == payloads

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SwRelParams(window=0)
        with pytest.raises(ValueError):
            SwRelParams(rto_ns=0)
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        with pytest.raises(ValueError, match="differ"):
            SwReliablePair(cluster, 1, 1)
        with pytest.raises(ValueError, match="window"):
            SwReliablePair(cluster, 0, 1,
                           params=SwRelParams(window=100_000))


class TestLossyNetwork:
    @pytest.mark.parametrize("ber", [2e-5, 1e-4])
    def test_delivers_exactly_despite_loss(self, ber):
        payloads = [bytes((i * 7 + j) % 256 for j in range(1500))
                    for i in range(12)]
        got, pair, _cluster = run_transfer(payloads, ber=ber)
        assert got == payloads
        assert pair.retransmissions > 0
        assert pair.drops > 0

    def test_loss_rate_scales_retransmissions(self):
        payloads = [bytes(1500) for _ in range(12)]
        _g1, low, _c1 = run_transfer(payloads, ber=2e-5)
        _g2, high, _c2 = run_transfer(payloads, ber=2e-4)
        assert high.retransmissions > low.retransmissions

    def test_fm_fails_where_swrel_survives(self):
        """The §3.1 trade made concrete: on the same lossy network, FM
        raises (no recovery machinery) while the software protocol,
        paying its overheads, delivers everything."""
        from repro.core.common import FmCorruptionError
        ber = 1e-4
        payloads = [bytes(1500) for _ in range(12)]
        got, _pair, _cluster = run_transfer(payloads, ber=ber)
        assert got == payloads

        cluster = lossy_cluster(ber=ber)

        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)

        hid = {n.fm.register_handler(handler) for n in cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(1500)
            for _ in range(50):
                yield from node.fm.send_buffer(1, hid, buf, 1500)

        def receiver(node):
            while True:
                got_bytes = yield from node.fm.extract()
                if not got_bytes:
                    yield node.env.timeout(300)

        with pytest.raises(FmCorruptionError):
            cluster.run([sender, receiver], until_ns=10_000_000_000)


class TestResilienceRegressions:
    def test_long_transfer_survives_tight_give_up_under_sustained_ber(self):
        """Regression: the give-up clock must reset whenever the window
        advances.  A transfer whose *total* duration far exceeds
        ``give_up_ns`` completes as long as ACK progress keeps arriving —
        only a genuinely stuck channel may trip the bound."""
        params = SwRelParams(give_up_ns=1_500_000)
        payloads = [bytes((i * 13) % 256 for i in range(100_000))]
        got, pair, cluster = run_transfer(payloads, ber=1e-4, params=params)
        assert got == payloads
        assert pair.retransmissions > 0           # the loss was real
        assert cluster.now > params.give_up_ns    # total >> bound, still done
        assert pair.max_progress_gap_ns < params.give_up_ns

    def test_dead_channel_raises_instead_of_spinning(self):
        """Regression: both the window-wait loop in send_message and drain
        are bounded — a channel that drops everything raises instead of
        burning simulated time forever."""
        cluster = lossy_cluster(drop_rate=1.0)
        params = SwRelParams(give_up_ns=3_000_000)
        pair = SwReliablePair(cluster, 0, 1, params=params)
        failure = []

        def sender(node):
            try:
                yield from pair.send_message(b"x" * 2000)
            except RuntimeError as err:
                failure.append(err)

        cluster.run([sender, None])
        assert failure, "sender never gave up on a dead channel"
        assert "gave up" in str(failure[0])
        assert pair.timeouts >= 2
        # Exponential backoff kicked in while the channel stayed silent.
        assert pair.rto_ns > params.rto_ns

    def test_adaptive_rto_tracks_the_measured_rtt(self):
        payloads = [bytes(1500) for _ in range(8)]
        _got, pair, _cluster = run_transfer(payloads)
        stats = pair.stats()
        assert stats["srtt_ns"] > 0
        assert stats["acks_received"] > 0
        assert stats["retransmissions"] == 0
        assert stats["wasted_fraction"] == 0.0
        assert stats["delivered_bytes"] == sum(len(p) for p in payloads)
        assert pair.params.min_rto_ns <= stats["rto_ns"] <= pair.params.max_rto_ns

    def test_fast_retransmit_fires_on_duplicate_acks(self):
        payloads = [bytes((i * 31 + j) % 256 for j in range(6000))
                    for i in range(6)]
        got, pair, _cluster = run_transfer(payloads, drop_rate=0.08)
        assert got == payloads
        assert pair.fast_retransmits > 0
        stats = pair.stats()
        assert stats["retransmitted_wire_bytes"] > 0
        assert 0.0 < stats["wasted_fraction"] < 1.0

    def test_drop_mode_delivers_exactly(self):
        payloads = [bytes([i]) * 1800 for i in range(10)]
        got, pair, _cluster = run_transfer(payloads, drop_rate=0.05)
        assert got == payloads
        assert pair.retransmissions > 0


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payloads=st.lists(st.binary(min_size=0, max_size=2500),
                         min_size=1, max_size=4),
       ber_index=st.integers(0, 2))
def test_any_payloads_any_loss_exactly_once_in_order(payloads, ber_index):
    ber = (0.0, 3e-5, 2e-4)[ber_index]
    got, _pair, _cluster = run_transfer(payloads, ber=ber)
    assert got == payloads
