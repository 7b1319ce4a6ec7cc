"""NIC firmware: send path, receive path, credit mailbox, back-pressure."""

import pytest

from repro.simkernel import Environment, Store
from repro.hardware.bus import IoBus
from repro.hardware.link import Link
from repro.hardware.nic import Nic
from repro.hardware.packet import Packet, PacketFlags, PacketHeader
from repro.hardware.params import BusParams, LinkParams, NicParams

BUS = BusParams(pio_bw=80e6, pio_startup_ns=100, dma_bw=100e6,
                dma_startup_ns=500)
NIC = NicParams(sram_packet_slots=2, recv_region_slots=4,
                firmware_send_ns=400, firmware_recv_ns=300)
LINK = LinkParams(bandwidth=160e6, propagation_ns=50, slots=2)


def make_packet(seq=0, flags=PacketFlags.NONE, credit=0, payload=b"y" * 16):
    header = PacketHeader(src=0, dest=1, handler_id=0, msg_id=0, seq=seq,
                          msg_bytes=len(payload), flags=flags)
    header.credit_return = credit
    return Packet(header, payload)


def build_nic(env):
    bus = IoBus(env, BUS)
    nic = Nic(env, NIC, bus, node_id=1)
    link = Link(env, LINK, name="tx")
    sink = Store(env)
    link.connect(sink)
    nic.connect_tx(link)
    link.start()
    nic.start()
    return nic, sink


class TestSendPath:
    def test_submit_reaches_link(self, env):
        nic, sink = build_nic(env)
        def host():
            yield from nic.submit(make_packet())
        env.process(host())
        def receiver():
            packet = yield sink.get()
            return env.now
        proc = env.process(receiver())
        at = env.run(until=proc)
        # firmware 400 + wire 200 + propagation 50
        assert at == 650
        assert nic.sent_packets == 1

    def test_sram_backpressure_blocks_host(self, env):
        bus = IoBus(env, BUS)
        nic = Nic(env, NIC, bus, node_id=1)
        link = Link(env, LINK, name="tx")
        sink = Store(env, capacity=1)    # bounded, never drained
        link.connect(sink)
        nic.connect_tx(link)
        link.start()
        nic.start()
        submitted = []
        def host():
            for seq in range(20):
                yield from nic.submit(make_packet(seq))
                submitted.append(env.now)
        env.process(host())
        env.run(until=1_000_000)
        # Bounded pipeline: sram 2 + link ingress 2 + flight 2 + delivery 1
        # + sink 1 (+1 in firmware hand-off) — far fewer than 20.
        assert len(submitted) < 12

    def test_start_requires_tx(self, env):
        bus = IoBus(env, BUS)
        nic = Nic(env, NIC, bus, node_id=0)
        with pytest.raises(RuntimeError, match="connect_tx"):
            nic.start()

    def test_double_connect_rejected(self, env):
        bus = IoBus(env, BUS)
        nic = Nic(env, NIC, bus, node_id=0)
        link = Link(env, LINK)
        nic.connect_tx(link)
        with pytest.raises(RuntimeError):
            nic.connect_tx(link)


class TestReceivePath:
    def test_data_packet_dmas_to_region(self, env):
        nic, _sink = build_nic(env)
        def network():
            yield nic.rx_sram.put(make_packet())
        env.process(network())
        env.run()
        assert nic.recv_region.level == 1
        assert nic.received_packets == 1

    def test_receive_timing(self, env):
        nic, _sink = build_nic(env)
        def network():
            yield nic.rx_sram.put(make_packet())
        env.process(network())
        arrivals = []
        def host():
            while not arrivals:
                item = nic.recv_region.try_get()
                if item is None:
                    yield env.timeout(10)
                else:
                    arrivals.append(env.now)
        proc = env.process(host())
        env.run(until=proc)
        # firmware 300 + dma (500 + 32 B at 100 MB/s = 320) = 1120, then the
        # polling host sees it on its next 10 ns poll boundary.
        assert 1120 <= arrivals[0] <= 1130

    def test_control_packet_updates_mailbox_without_region_slot(self, env):
        nic, _sink = build_nic(env)
        def network():
            yield nic.rx_sram.put(make_packet(
                flags=PacketFlags.CONTROL, credit=5, payload=b""))
        env.process(network())
        env.run()
        assert nic.recv_region.level == 0
        assert nic.control_packets == 1
        assert nic.take_credits(0) == 5
        assert nic.take_credits(0) == 0   # drained

    def test_corrupt_control_packet_dropped_not_absorbed(self, env):
        """Regression: a fault-marked credit return must never reach the
        mailbox — absorbing a damaged credit count would silently skew the
        sender's flow-control ledger."""
        nic, _sink = build_nic(env)
        def network():
            yield nic.rx_sram.put(make_packet(
                flags=PacketFlags.CONTROL, credit=5, payload=b""))
            corrupt = make_packet(
                flags=PacketFlags.CONTROL | PacketFlags.CORRUPT,
                credit=8, payload=b"")
            yield nic.rx_sram.put(corrupt)
        env.process(network())
        env.run()
        assert nic.recv_region.level == 0
        assert nic.control_packets == 1
        assert nic.corrupt_control_packets == 1
        assert nic.take_credits(0) == 5   # only the clean return counted

    def test_credits_accumulate(self, env):
        nic, _sink = build_nic(env)
        def network():
            for _ in range(3):
                yield nic.rx_sram.put(make_packet(
                    flags=PacketFlags.CONTROL, credit=2, payload=b""))
        env.process(network())
        env.run()
        assert nic.take_credits(0) == 6

    def test_full_region_backpressures_into_sram(self, env):
        nic, _sink = build_nic(env)
        def network():
            for seq in range(10):
                yield nic.rx_sram.put(make_packet(seq))
        env.process(network())
        env.run(until=1_000_000)
        # Region holds 4; one more may sit in the firmware waiting to be
        # deposited; the rest are stuck in SRAM/upstream, not dropped.
        assert nic.recv_region.level == 4
        assert nic.received_packets <= 5


class TestStaleWakeups:
    """A ``rx_wakeup`` / ``cq_wakeup`` whose cap fired first stays listed
    until the next deposit; flushing it must cost a flag test, not an
    event scheduled and fired for nobody."""

    @staticmethod
    def capped_out(env, wakeup, n):
        def host():
            for _ in range(n):
                yield env.first_of(wakeup(), 20)
        env.run(until=env.process(host()))

    def deposit_cost(self, n):
        env = Environment()
        nic, _sink = build_nic(env)
        self.capped_out(env, nic.rx_wakeup, n)
        assert len(nic._rx_waiters) == n
        live = nic.rx_wakeup()
        before = env.scheduled_events
        def network():
            yield nic.rx_sram.put(make_packet())
        env.process(network())
        env.run()
        assert live.processed and not nic._rx_waiters
        return env.scheduled_events - before

    def test_deposit_after_n_capped_out_waits_is_o1(self):
        assert self.deposit_cost(500) == self.deposit_cost(5)

    def test_completion_after_n_capped_out_waits_is_o1(self, env):
        nic, _sink = build_nic(env)
        self.capped_out(env, nic.cq_wakeup, 500)
        live = nic.cq_wakeup()
        before = env.scheduled_events
        nic._post_completion("write", 0, 1, 1, 0)
        assert env.scheduled_events == before + 1      # the live waiter
        env.run()
        assert live.processed and not nic._cq_waiters
