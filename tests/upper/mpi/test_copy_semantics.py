"""The paper's copy-count claims, asserted directly from the copy meter.

§3.2 / §4.1 reduced to numbers: over FM 1.x, a received byte is copied
three times by the MPI layer-interface (staging, pool, delivery — plus a
spill under overrun) and a sent byte once (assembly); over FM 2.x, a
received byte is copied exactly once (receive region -> posted user
buffer) and a sent byte zero times.
"""

import pytest

from tests.golden.regen import mpi_world

SIZE = 1024


def run_one_transfer(fm_version, pre_post=True, size=SIZE):
    cluster, comms = mpi_world(f"fm{fm_version}")
    payload = bytes(i % 251 for i in range(size))
    out = {}

    def rank0(node):
        if not pre_post:
            yield node.env.timeout(50_000)
        yield from comms[0].send(payload, 1, tag=1)

    def rank1(node):
        if pre_post:
            req = yield from comms[1].irecv(0, 1, max_bytes=size)
            data, _ = yield from comms[1].wait(req)
        else:
            # Let the message arrive unexpected first.
            while comms[1].engine.stats_unexpected == 0:
                yield from comms[1].engine.progress()
                yield node.env.timeout(1_000)
            data, _ = yield from comms[1].recv(0, 1, max_bytes=size)
        out["data"] = data

    cluster.run([rank0, rank1])
    assert out["data"] == payload
    return cluster


class TestMpiFm1Copies:
    def test_send_assembly_copy(self):
        cluster = run_one_transfer(1)
        meter = cluster.node(0).cpu.meter
        assert meter.bytes_for("mpi1.send_assembly") == SIZE

    def test_receive_is_three_copies_even_preposted(self):
        """The §3.2 complaint: a pre-posted receive doesn't help FM 1.x."""
        cluster = run_one_transfer(1, pre_post=True)
        meter = cluster.node(1).cpu.meter
        envelope = 24
        assert meter.bytes_for("fm1.staging_copy") == SIZE + envelope
        assert meter.bytes_for("mpi1.pool_copy") == SIZE
        assert meter.bytes_for("mpi1.deliver") == SIZE

    def test_unexpected_adds_no_extra_beyond_pool_path(self):
        cluster = run_one_transfer(1, pre_post=False)
        meter = cluster.node(1).cpu.meter
        assert meter.bytes_for("mpi1.pool_copy") == SIZE
        assert meter.bytes_for("mpi1.deliver") == SIZE

    def test_burst_overruns_pool_and_spills(self):
        """No receiver pacing: a burst forces spill copies (§3.2)."""
        cluster, comms = mpi_world("fm1")
        n_messages = 12

        def rank0(node):
            for _ in range(n_messages):
                yield from comms[0].send(bytes(256), 1, tag=1)

        def rank1(node):
            # Progress without posting: everything lands unexpected.
            while comms[1].engine.stats_unexpected < n_messages:
                yield from comms[1].engine.progress()
                yield node.env.timeout(1_000)
            for _ in range(n_messages):
                yield from comms[1].recv(0, 1)

        cluster.run([rank0, rank1])
        assert comms[1].engine.stats_spills > 0
        assert cluster.node(1).cpu.meter.bytes_for("mpi1.spill_copy") > 0


class TestMpiFm2Copies:
    def test_send_path_performs_zero_copies(self):
        cluster = run_one_transfer(2)
        meter = cluster.node(0).cpu.meter
        assert meter.copies == 0

    def test_preposted_receive_is_single_copy(self):
        """§4.1: interleaving + receive posting = one copy, region -> user."""
        cluster = run_one_transfer(2, pre_post=True)
        meter = cluster.node(1).cpu.meter
        envelope = 24
        # fm2.deliver covers the envelope read + the payload scatter.
        assert meter.bytes_for("fm2.deliver") == SIZE + envelope
        assert meter.bytes_for("mpi2.deliver") == 0
        assert meter.bytes_for("mpi1.pool_copy") == 0

    def test_unexpected_costs_one_extra_copy(self):
        cluster = run_one_transfer(2, pre_post=False)
        meter = cluster.node(1).cpu.meter
        assert meter.bytes_for("fm2.deliver") == SIZE + 24
        assert meter.bytes_for("mpi2.deliver") == SIZE

    def test_paced_progress_prevents_spills(self):
        cluster, comms = mpi_world("fm2")
        n_messages = 12

        def rank0(node):
            for _ in range(n_messages):
                yield from comms[0].send(bytes(256), 1, tag=1)

        def rank1(node):
            while comms[1].engine.stats_unexpected < n_messages:
                yield from comms[1].engine.progress()
                yield node.env.timeout(1_000)
            for _ in range(n_messages):
                yield from comms[1].recv(0, 1)

        cluster.run([rank0, rank1])
        assert comms[1].engine.stats_spills == 0


class TestCopyAdvantage:
    @pytest.mark.parametrize("size", [256, 2048])
    def test_fm2_total_receive_copy_bytes_strictly_lower(self, size):
        fm1 = run_one_transfer(1, size=size).node(1).cpu.meter.bytes
        fm2 = run_one_transfer(2, size=size).node(1).cpu.meter.bytes
        assert fm2 < fm1 / 2.5
