"""Stall detection measured in sim time, even when a fault slows the CPU.

Regression for the backoff-counter bug: the MPI engine's blocking loops
and the shmem wait loop used to accumulate only their idle-backoff time, so
a ``CpuSlow`` episode — which inflates the sim time spent *inside* every
``progress()`` pass — could postpone the ``stall_limit_ns`` check almost
arbitrarily.  The clocks now compare ``env.now`` against the loop's last
progress point, so detection fires within the limit (plus one idle-wait
cap and one progress pass) no matter how slow the host runs.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.common import FmParams, FmStalledError
from repro.faults import FaultPlan
from repro.faults.plan import CpuSlow
from repro.upper.mpi import build_mpi_world
from repro.upper.mpi.status import MpiError
from repro.upper.shmem import Shmem, ShmemError
from repro.upper.sockets import SocketError, SocketStack

STALL_LIMIT_NS = 300_000
#: Detection slop: one capped idle wait plus one (slowed) progress pass.
#: Well under the old behaviour, which overshot by ~the slowdown factor.
SLOP_NS = 150_000


def make_cluster(n_nodes: int = 2) -> Cluster:
    return Cluster(n_nodes, machine=PPRO_FM2, fm_version=2,
                   fm_params=FmParams(packet_payload=1024,
                                      stall_limit_ns=STALL_LIMIT_NS))


def slow_node(cluster: Cluster, node: int, factor: float = 50.0) -> None:
    cluster.inject_faults(FaultPlan(seed=1, episodes=(
        CpuSlow(node=node, factor=factor),)))


class TestMpiStallUnderCpuSlow:
    def test_starved_recv_fails_within_the_limit(self):
        cluster = make_cluster()
        slow_node(cluster, node=1)
        comms = build_mpi_world(cluster)

        def starved(node):
            yield from comms[1].recv(0, 9)

        with pytest.raises(MpiError, match="no progress"):
            cluster.run([None, starved])
        assert cluster.now <= STALL_LIMIT_NS + SLOP_NS

    def test_detection_time_matches_the_unfaulted_run(self):
        # The whole point: a 50x CPU slowdown must not stretch the
        # detection deadline by 50x.  Both runs end within the same
        # sim-time budget.
        def starved_run(faulted: bool) -> int:
            cluster = make_cluster()
            if faulted:
                slow_node(cluster, node=1)
            comms = build_mpi_world(cluster)

            def starved(node):
                yield from comms[1].recv(0, 9)

            with pytest.raises(MpiError):
                cluster.run([None, starved])
            return cluster.now

        plain, faulted = starved_run(False), starved_run(True)
        assert plain <= STALL_LIMIT_NS + SLOP_NS
        assert faulted <= STALL_LIMIT_NS + SLOP_NS

    def test_cts_wait_also_detects(self):
        # Rendezvous sender whose receiver never posts: the CTS wait loop
        # shares the same clock discipline.
        cluster = make_cluster()
        slow_node(cluster, node=0)
        comms = build_mpi_world(cluster)

        def sender(node):
            yield from comms[0].send(bytes(64 * 1024), 1, 5)

        def mute(node):
            # Never posts, never progresses past the handshake.
            yield cluster.env.timeout(10 * STALL_LIMIT_NS)

        with pytest.raises(MpiError, match="CTS"):
            cluster.run([sender, mute])
        # The slowed send path runs *before* the wait-loop clock starts, so
        # the bound is looser here — but nowhere near the old behaviour,
        # where a 50x slowdown stretched detection towards 50x the limit.
        assert cluster.now <= 2 * STALL_LIMIT_NS

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["plain", "cpu-slow"])
    def test_probe_of_a_silent_rank_fails_within_the_limit(self, faulted):
        # probe() used to poll iprobe on a 300 ns timer with no stall
        # clock: the event heap never drained and the run never returned.
        # until_ns turns that hang into a TimeoutError failure.
        cluster = make_cluster()
        if faulted:
            slow_node(cluster, node=1)
        comms = build_mpi_world(cluster)

        def prober(node):
            yield from comms[1].probe(0, 5)

        with pytest.raises(MpiError, match=r"rank 1: probe\(\) saw no "
                                           "message from 0 with tag 5"):
            cluster.run([None, prober], until_ns=10 * STALL_LIMIT_NS)
        assert cluster.now <= STALL_LIMIT_NS + SLOP_NS


class TestShmemStallUnderCpuSlow:
    def test_unserved_get_fails_within_the_limit(self):
        cluster = make_cluster()
        slow_node(cluster, node=0)
        shmems = [Shmem(node, 2) for node in cluster.nodes]
        for sh in shmems:
            sh.register_region(1, 256)

        def pe0(node):
            # PE 1 runs no program, so nobody ever serves the get.
            yield from shmems[0].get(1, 1, 0, 64)

        with pytest.raises(ShmemError, match="stalled"):
            cluster.run([pe0, None])
        # As in the CTS case, the slowed GET send precedes the wait-loop
        # clock; the bound stays a small multiple of the limit rather than
        # a multiple of the slowdown factor.
        assert cluster.now <= 2 * STALL_LIMIT_NS


class TestSocketsStallClock:
    """Sockets block on the shared engine's clock: it bounds time
    *stalled* (re-anchored by every pass that advances), not the total
    wait, and is measured in sim time like the MPI and shmem clocks."""

    def test_accept_outlives_the_limit_while_passes_advance(self):
        # A server parked in accept() for longer than the stall limit is
        # not stalled while every pass extracts another connection's
        # traffic.  The old clock measured the total wait and killed it at
        # its first idle pass after the limit ("accept() timed out").
        cluster = make_cluster(3)
        stacks = [SocketStack(node) for node in cluster.nodes]
        accepted = []

        def server(node):
            stacks[0].listen()
            for _ in range(2):
                sock = yield from stacks[0].accept()
                accepted.append((sock.peer_node, node.env.now))

        def chatty(node):
            sock = yield from stacks[1].connect(0)
            for _ in range(16):
                yield from sock.send(bytes(512))
                yield node.env.timeout(50_000)

        def late(node):
            yield node.env.timeout(2 * STALL_LIMIT_NS)
            yield from stacks[2].connect(0)

        cluster.run([server, chatty, late])
        assert [peer for peer, _t in accepted] == [1, 2]
        assert accepted[1][1] > 2 * STALL_LIMIT_NS

    def test_mute_peer_recv_fails_within_the_limit(self):
        cluster = make_cluster()
        slow_node(cluster, node=0)
        stacks = [SocketStack(node) for node in cluster.nodes]
        recv_began = [0]

        def reader(node):
            stacks[0].listen()
            sock = yield from stacks[0].accept()
            recv_began[0] = node.env.now
            yield from sock.recv(64)

        def mute(node):
            # Connects, then never sends and never closes.
            yield from stacks[1].connect(0)
            yield node.env.timeout(10 * STALL_LIMIT_NS)

        with pytest.raises(SocketError, match="recv stalled"):
            cluster.run([reader, mute])
        assert cluster.now - recv_began[0] <= STALL_LIMIT_NS + SLOP_NS


class TestFmCreditStallClock:
    """``FmEndpoint.acquire_credit`` shares the clock discipline: the
    credit-stall limit is simulated time since the stall began, not a sum
    of nominal poll costs — so time inside the stall hook, or inflated by
    a ``CpuSlow`` episode, counts."""

    HOOK_NS = 20_000

    def starved_sender(self, *, slow: bool, hook: bool) -> int:
        """Stream at a receiver that never extracts; returns how long after
        the start of the stalled send ``FmStalledError`` fired (sim ns)."""
        cluster = make_cluster()
        if slow:
            # 20x keeps the slowed send path that precedes the stall (it is
            # inside the measured interval) well under SLOP_NS.
            slow_node(cluster, node=0, factor=20.0)
        fm = cluster.nodes[0].fm
        hid = {n.fm.register_handler(lambda *a: None)
               for n in cluster.nodes}.pop()
        if hook:
            def progress_pass():
                yield cluster.env.timeout(self.HOOK_NS)
            fm.stall_hook = progress_pass
        send_began = [0]

        def sender(node):
            buf = node.buffer(64)
            while True:
                send_began[0] = node.env.now
                yield from fm.send_buffer(1, hid, buf, 64)

        with pytest.raises(FmStalledError):
            cluster.run([sender, None])
        assert fm.stats_credit_stalls == 1
        return cluster.now - send_began[0]

    @pytest.mark.parametrize("slow,hook", [(True, False), (False, True),
                                           (True, True)])
    def test_diagnosed_within_one_limit(self, slow, hook):
        overshoot = self.starved_sender(slow=slow, hook=hook)
        assert overshoot <= STALL_LIMIT_NS + SLOP_NS
