"""The shared progress engine's contract, on bare FM 2.x.

What every upper layer inherits from :class:`repro.core.progress.Progress`
and therefore need not re-test: the re-entrancy guard under a credit
stall, the stall clock of ``wait_until``, and the exact event sequence of
an idle wait.  No upper layer is involved in the first two; the third
pins the numbers of a starved ``MPI_Recv`` because that is the sequence
every golden report and perfbench event count was recorded against.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.common import IDLE_WAIT_CAP_NS, FmParams
from repro.core.progress import Progress
from repro.faults import FaultPlan
from repro.faults.plan import CpuSlow
from repro.upper.mpi import build_mpi_world
from repro.upper.mpi.status import MpiError

STALL_LIMIT_NS = 300_000


class Stalled(Exception):
    """What the engines under test raise on a stall."""


def make_cluster() -> Cluster:
    return Cluster(2, machine=PPRO_FM2, fm_version=2,
                   fm_params=FmParams(packet_payload=1024,
                                      stall_limit_ns=STALL_LIMIT_NS))


def register(cluster: Cluster, handler) -> int:
    """SPMD-register ``handler`` on every node; returns its id."""
    return {node.fm.register_handler(handler) for node in cluster.nodes}.pop()


def no_flush():
    return False
    yield


def counting_handler(log: list):
    def handler(fm, stream, src):
        log.append(src)
        return
        yield
    return handler


class TestReentrancy:
    def test_flush_stalled_on_credits_reenters_as_a_noop(self):
        cluster = make_cluster()
        env = cluster.env
        fm = cluster.nodes[0].fm
        received = []
        hid = register(cluster, counting_handler(received))
        burst = fm.params.credits_per_peer + 4

        def flush():
            # More one-packet replies than credits: the send stalls in
            # acquire_credit, which calls back in through the stall hook.
            buf = cluster.nodes[0].buffer(64)
            for _ in range(burst):
                yield from fm.send_buffer(1, hid, buf, 64)
            return True

        engine = Progress(fm, None, flush, Stalled)
        fm.stall_hook = engine.on_credit_stall
        passes, extracts = [], []
        real_progress, real_extract = engine.progress, fm.extract

        def spy_progress(budget=None):
            advanced = yield from real_progress(budget)
            passes.append(advanced)
            return advanced

        def spy_extract(max_bytes=None):
            extracts.append(env.now)
            return (yield from real_extract(max_bytes))

        engine.progress, fm.extract = spy_progress, spy_extract

        def sender(node):
            yield from engine.progress()

        def late_receiver(node):
            yield env.timeout(STALL_LIMIT_NS // 2)
            while len(received) < burst:
                yield from node.fm.extract()
                yield env.timeout(1_000)

        cluster.run([sender, late_receiver])
        assert fm.stats_credit_stalls == 1
        # Every re-entry returned False without extracting; the one outer
        # pass extracted once, finished its flush and reported it.
        assert len(passes) > 1 and not any(passes[:-1])
        assert passes[-1] is True
        assert len(extracts) == 1
        assert len(received) == burst


class TestStallClock:
    @pytest.mark.parametrize("slow", [False, True])
    def test_reanchors_while_advancing_then_fails_within_the_limit(self, slow):
        cluster = make_cluster()
        if slow:
            cluster.inject_faults(FaultPlan(seed=1, episodes=(
                CpuSlow(node=1, factor=50.0),)))
        env = cluster.env
        hid = register(cluster, counting_handler([]))
        engine = Progress(cluster.nodes[1].fm, None, no_flush,
                          lambda what: Stalled(f"waiting for {what}"))
        last_advance = [0]
        pass_ns = [0]

        def step():
            advanced = yield from engine.progress()
            if advanced:
                last_advance[0] = env.now
            return advanced

        def trickle(node):
            # Six messages 100 us apart: the wait below lasts well past the
            # limit in total, but is never *stalled* for that long.
            buf = node.buffer(64)
            for _ in range(6):
                yield from node.fm.send_buffer(1, hid, buf, 64)
                yield env.timeout(100_000)

        def waiter(node):
            t0 = env.now
            yield from engine.progress()
            pass_ns[0] = env.now - t0          # one (possibly slowed) pass
            yield from engine.wait_until(lambda: False, "godot", step=step)

        with pytest.raises(Stalled, match="waiting for godot"):
            cluster.run([trickle, waiter])
        assert last_advance[0] > STALL_LIMIT_NS
        stalled_for = cluster.now - last_advance[0]
        assert (STALL_LIMIT_NS < stalled_for
                <= STALL_LIMIT_NS + IDLE_WAIT_CAP_NS + pass_ns[0])


class TestEventSequence:
    def test_starved_recv_event_counts_are_pinned(self):
        # pass -> stall check -> cap Timeout, then the rx_wakeup event it
        # wakes, per idle iteration (nothing ever arrives, so every wait caps
        # out): one event more or fewer anywhere in the loop moves
        # these counts, and with them every recorded events_per_op.
        cluster = make_cluster()
        comms = build_mpi_world(cluster)

        def starved(node):
            yield from comms[1].recv(0, 9)

        with pytest.raises(MpiError, match="no progress"):
            cluster.run([None, starved])
        assert cluster.now == 310_000
        assert cluster.env.scheduled_events == 64
        assert cluster.env.elided == 17
