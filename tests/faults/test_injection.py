"""Planned fault episodes landing on the hardware and protocol layers."""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.common import (
    FmParams,
    FmStalledError,
    FmTransportError,
)
from repro.faults import CpuSlow, FaultInjector, FaultPlan, LinkFault, NicStall
from repro.hardware.bus import IoBus
from repro.hardware.cpu import HostCpu
from repro.hardware.link import Link
from repro.hardware.nic import Nic
from repro.hardware.packet import Packet, PacketFlags, PacketHeader
from repro.hardware.params import BusParams, CpuParams, LinkParams, NicParams
from repro.simkernel import Environment, Store

LINK = LinkParams(bandwidth=160e6, propagation_ns=100, slots=2)
BUS = BusParams(pio_bw=80e6, pio_startup_ns=100, dma_bw=100e6,
                dma_startup_ns=500)
NIC = NicParams(sram_packet_slots=2, recv_region_slots=4,
                firmware_send_ns=400, firmware_recv_ns=300)
CPU = CpuParams(clock_hz=200e6, memcpy_bw=100e6, memcpy_startup_ns=100,
                call_ns=50, poll_ns=100, per_packet_ns=200, per_message_ns=400)


def make_packet(seq=0, payload=b"x" * 16):
    header = PacketHeader(src=0, dest=1, handler_id=0, msg_id=0, seq=seq,
                          msg_bytes=len(payload), flags=PacketFlags.NONE)
    return Packet(header, payload)


def wired_link(env, name="faulty-link"):
    link = Link(env, LINK, name=name)
    sink = Store(env)
    link.connect(sink)
    link.start()
    return link, sink


class TestLinkEpisodes:
    def test_burst_corrupts_only_inside_window(self, env):
        # Packets finish the wire at 200, 400, 600, 800 ns (200 ns each,
        # back to back); the burst covers only the first two.
        injector = FaultInjector(FaultPlan(seed=1, episodes=(
            LinkFault(link="faulty-link", start_ns=0, end_ns=500,
                      ber=0.999),))).attach(env)
        link, sink = wired_link(env)

        def sender():
            for seq in range(4):
                yield link.ingress.put(make_packet(seq))
        env.process(sender())
        env.run()
        fates = []
        while (packet := sink.try_get()) is not None:
            fates.append(bool(packet.header.flags & PacketFlags.CORRUPT))
        assert fates == [True, True, False, False]
        assert link.corrupted == 2
        assert injector.counters["link.corrupt"] == 2
        assert [e[0] for e in injector.events] == [200, 400]
        assert all(kind == "corrupt" for _t, kind, _c, _d in injector.events)

    def test_drop_window_discards_packets(self, env):
        injector = FaultInjector(FaultPlan(seed=1, episodes=(
            LinkFault(link="*", start_ns=0, end_ns=500,
                      drop_rate=1.0),))).attach(env)
        link, sink = wired_link(env)

        def sender():
            for seq in range(5):
                yield link.ingress.put(make_packet(seq))
        env.process(sender())
        env.run()
        seqs = []
        while (packet := sink.try_get()) is not None:
            seqs.append(packet.header.seq)
        assert seqs == [2, 3, 4]       # survivors, still in order
        assert link.dropped == 2
        assert injector.counters["link.drop"] == 2

    def test_pattern_misses_leave_link_untouched(self, env):
        injector = FaultInjector(FaultPlan(seed=1, episodes=(
            LinkFault(link="link:h9->*", ber=0.999),))).attach(env)
        link, sink = wired_link(env)

        def sender():
            for seq in range(5):
                yield link.ingress.put(make_packet(seq))
        env.process(sender())
        env.run()
        assert link.corrupted == 0 and link.dropped == 0
        assert injector.events == []


def build_nic(env, node_id=1):
    bus = IoBus(env, BUS)
    nic = Nic(env, NIC, bus, node_id=node_id)
    link = Link(env, LINK, name="tx")
    sink = Store(env)
    link.connect(sink)
    nic.connect_tx(link)
    link.start()
    nic.start()
    return nic, sink


class TestNicStalls:
    def arrival_time(self, plan):
        env = Environment()
        if plan is not None:
            FaultInjector(plan).attach(env)
        nic, sink = build_nic(env)

        def host():
            yield from nic.submit(make_packet())
        env.process(host())

        def receiver():
            yield sink.get()
            return env.now
        proc = env.process(receiver())
        return env.run(until=proc)

    def test_tx_stall_delays_injection(self):
        # Clean: firmware 400 + wire 200 + propagation 100 = 700.
        assert self.arrival_time(None) == 700
        stalled = FaultPlan(seed=0, episodes=(
            NicStall(node=1, extra_ns=1000, side="tx"),))
        assert self.arrival_time(stalled) == 1700

    def test_rx_only_stall_leaves_tx_alone(self):
        rx_only = FaultPlan(seed=0, episodes=(
            NicStall(node=1, extra_ns=1000, side="rx"),))
        assert self.arrival_time(rx_only) == 700

    def test_other_nodes_unaffected_and_stalls_add_up(self):
        other = FaultPlan(seed=0, episodes=(
            NicStall(node=3, extra_ns=1000),))
        assert self.arrival_time(other) == 700
        doubled = FaultPlan(seed=0, episodes=(
            NicStall(node=1, extra_ns=300, side="tx"),
            NicStall(extra_ns=200, side="both"),))
        assert self.arrival_time(doubled) == 700 + 500

    def test_stall_window_expires(self):
        late = FaultPlan(seed=0, episodes=(
            NicStall(node=1, extra_ns=1000, side="tx",
                     start_ns=10_000, end_ns=20_000),))
        assert self.arrival_time(late) == 700


class TestCpuSlow:
    def run_cost(self, plan, cost_ns=1000, name="cpu3"):
        env = Environment()
        injector = FaultInjector(plan).attach(env) if plan is not None else None

        def prog():
            yield from HostCpu(env, CPU, name=name).execute(cost_ns)
        env.process(prog())
        env.run()
        return env.now, injector

    def test_factor_scales_cost(self):
        now, injector = self.run_cost(FaultPlan(seed=0, episodes=(
            CpuSlow(node=3, factor=2.5),)))
        assert now == 2500
        assert injector.counters["cpu.slow_ns"] == 1500

    def test_jitter_is_bounded_and_deterministic(self):
        plan = FaultPlan(seed=9, episodes=(CpuSlow(node=3, jitter_ns=200),))
        first, _ = self.run_cost(plan)
        second, _ = self.run_cost(plan)
        assert 1000 <= first <= 1200
        assert first == second

    def test_other_cpu_untouched(self):
        now, injector = self.run_cost(
            FaultPlan(seed=0, episodes=(CpuSlow(node=7, factor=3.0),)))
        assert now == 1000
        assert injector.counters["cpu.slow_ns"] == 0


class TestClusterIntegration:
    def test_fm_fails_loud_with_diagnosable_error(self):
        """A bit-error burst on the forward path makes FM raise — with
        enough attached diagnostics to reconstruct the packet's journey."""
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        injector = cluster.inject_faults(FaultPlan(seed=3, episodes=(
            LinkFault(link="link:h0->*", start_ns=20_000, end_ns=2_000_000,
                      ber=1e-4),)))

        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)

        hid = {n.fm.register_handler(handler) for n in cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(1500)
            for _ in range(40):
                yield from node.fm.send_buffer(1, hid, buf, 1500)

        def receiver(node):
            while True:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(300)

        with pytest.raises(FmTransportError) as exc_info:
            cluster.run([sender, receiver], until_ns=1_000_000_000)
        err = exc_info.value
        assert err.node == 1 and err.src == 0
        assert err.time_ns >= 20_000
        assert err.waypoints          # the journey came along
        report = err.diagnose()
        assert "detected at node 1" in report
        assert "journey:" in report
        # The detection follows the first injected corruption.
        first_injected = injector.events[0][0]
        assert err.time_ns > first_injected

    def test_credits_conserved_under_reverse_path_corruption(self):
        """Corrupting only the credit-return path must never inflate the
        sender's ledger: damaged CONTROL packets are dropped (and counted),
        and the credits they carried are lost, not invented."""
        params = FmParams(packet_payload=256, credits_per_peer=16,
                          credit_batch=8, stall_limit_ns=2_000_000,
                          credit_spin_ns=500)
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2,
                          fm_params=params)
        # h1 -> s0 -> h0 carries only node1's credit returns (node0 is the
        # sole sender), so the forward data path stays clean.
        injector = cluster.inject_faults(FaultPlan(seed=5, episodes=(
            LinkFault(link="link:s0->h0", ber=5e-3),)))
        received = []

        def handler(fm, stream, src):
            received.append((yield from stream.receive_bytes(stream.msg_bytes)))

        hid = {n.fm.register_handler(handler) for n in cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(64)
            for i in range(120):
                buf.write(bytes([i % 256]) * 64)
                yield from node.fm.send_buffer(1, hid, buf, 64)

        def receiver(node):
            while len(received) < 120:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(1000)

        try:
            cluster.run([sender, receiver], until_ns=100_000_000)
        except (FmStalledError, TimeoutError):
            pass          # lost credits may legitimately starve the sender
        nic0 = cluster.nodes[0].nic
        assert nic0.corrupt_control_packets > 0
        assert injector.counters["link.corrupt"] > 0
        # Conservation: what the sender can still spend plus what the
        # receiver still owes never exceeds the configured allowance.
        # (credits_available absorbs the mailbox, so this also proves no
        # damaged count was absorbed — that would overflow the ledger.)
        available = cluster.nodes[0].fm.credits_available(1)
        pending = cluster.nodes[1].fm._pending_returns.get(0, 0)
        assert available + pending <= params.credits_per_peer

    def test_counters_federated_into_observer(self):
        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        observer = cluster.observe()
        injector = cluster.inject_faults(FaultPlan(seed=0))
        injector.counters["link.drop"] += 2
        assert observer.metrics.as_dict()["counters"]["faults"] == {
            "link.drop": 2}
        # The same when the injector is attached first.
        cluster2 = Cluster(2, machine=PPRO_FM2, fm_version=2)
        injector2 = cluster2.inject_faults(FaultPlan(seed=0))
        observer2 = cluster2.observe()
        assert observer2.metrics.as_dict()["counters"]["faults"] == {}
        injector2.counters["nic.stall_ns"] += 40
        assert observer2.metrics.as_dict()["counters"]["faults"] == {
            "nic.stall_ns": 40}
        # No injector, no ``faults`` bag.
        assert "faults" not in Cluster(2).observe().metrics.as_dict()[
            "counters"]
