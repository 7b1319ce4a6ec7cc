"""End-to-end determinism: identical builds produce identical histories.

The simulation must be a pure function of its inputs — no hash-order,
wall-clock, or hidden-global dependence.  A mixed workload (MPI
collectives + point-to-point + sockets) is run twice from scratch and the
full event traces are compared record for record.
"""

import numpy as np

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.obs.export import dumps_deterministic, trace_events
from repro.obs.observer import Observer
from repro.upper.mpi import build_mpi_world
from repro.upper.sockets import SocketStack
from tests._tracer import Tracer


def mixed_workload_trace(observe: bool = False, fault_plan=None):
    """Run a nontrivial 4-node workload and return its full trace.

    ``fault_plan`` attaches a :class:`repro.faults.FaultInjector`; the
    injector's fault trace rides back in ``outputs["fault_events"]`` so the
    existing output comparisons also pin fault-trace determinism.
    """
    cluster = Cluster(4, machine=PPRO_FM2, fm_version=2)
    tracer = Tracer().attach(cluster.env)
    if observe:
        cluster.observe()
    injector = (cluster.inject_faults(fault_plan)
                if fault_plan is not None else None)
    comms = build_mpi_world(cluster)
    outputs = {}

    def make(rank):
        comm = comms[rank]

        def program(node):
            # Collective + p2p mix.
            total = yield from comm.allreduce(
                np.arange(4, dtype=np.float64) * (rank + 1), np.add)
            right = (rank + 1) % 4
            left = (rank - 1) % 4
            data, _ = yield from comm.sendrecv(bytes([rank]) * 200, right,
                                               left)
            gathered = yield from comm.gather(data, root=0)
            outputs[rank] = (float(total.sum()), data,
                             None if gathered is None else len(gathered))
        return program

    cluster.run([make(rank) for rank in range(4)])
    if injector is not None:
        outputs["fault_events"] = tuple(injector.events)
    return tracer, outputs, cluster.now


def socket_workload_trace():
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    tracer = Tracer().attach(cluster.env)
    stacks = [SocketStack(node) for node in cluster.nodes]
    out = {}

    def server(node):
        stacks[0].listen()
        sock = yield from stacks[0].accept()
        data = yield from sock.recv_exactly(5000)
        yield from sock.send(data[::-1])

    def client(node):
        sock = yield from stacks[1].connect(0)
        yield from sock.send(bytes(range(250)) * 20)
        out["echo"] = yield from sock.recv_exactly(5000)

    cluster.run([server, client])
    return tracer, out, cluster.now


def fm2_stream_trace(slow_path: bool = False):
    """A 2-node FM2 message stream, traced; optionally on the reference path.

    ``slow_path=True`` drives the whole run through ``step()`` /
    ``run_steps()`` (no drain-loop inlining, no event recycling) instead of
    ``env.run()``'s batched drain — the two must fire the exact same events.
    """
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    env = cluster.env
    tracer = Tracer().attach(env)
    log = []

    def handler(fm, stream, src):
        log.append((yield from stream.receive_bytes(stream.msg_bytes)))

    hid = {n.fm.register_handler(handler) for n in cluster.nodes}.pop()
    payloads = [bytes((i * 37 + m) % 256 for i in range(1500)) for m in range(10)]

    def sender(node):
        buf = node.buffer(1500)
        for payload in payloads:
            buf.write(payload)
            yield from node.fm.send_buffer(1, hid, buf, 1500)

    def receiver(node):
        while len(log) < len(payloads):
            got = yield from node.fm.extract()
            if not got:
                yield node.env.timeout(500)

    done = env.all_of([cluster.spawn(sender, 0), cluster.spawn(receiver, 1)])
    if slow_path:
        while not done.processed:
            assert env.run_steps(64) > 0, "deadlock on the reference path"
    else:
        env.run(until=done)
    assert log == payloads
    return tracer, env.now


class TestDeterminism:
    def test_mpi_workload_bit_identical(self):
        first_trace, first_out, first_now = mixed_workload_trace()
        second_trace, second_out, second_now = mixed_workload_trace()
        assert first_now == second_now
        assert first_out == second_out
        assert len(first_trace) == len(second_trace)
        assert [tuple(r) for r in first_trace.records] == \
            [tuple(r) for r in second_trace.records]

    def test_socket_workload_bit_identical(self):
        first_trace, first_out, first_now = socket_workload_trace()
        second_trace, second_out, second_now = socket_workload_trace()
        assert first_now == second_now
        assert first_out == second_out
        assert [tuple(r) for r in first_trace.records] == \
            [tuple(r) for r in second_trace.records]

    def test_fast_path_matches_reference_path(self):
        """The drain loop's fast paths (callback inlining, event pooling,
        immediate queue) fire the exact same (time, seq, priority, kind,
        name) sequence as single-stepping through ``step()``."""
        fast_trace, fast_now = fm2_stream_trace(slow_path=False)
        slow_trace, slow_now = fm2_stream_trace(slow_path=True)
        assert fast_now == slow_now
        fast = [(r.time, r.seq, r.priority, r.kind, r.name)
                for r in fast_trace.records]
        slow = [(r.time, r.seq, r.priority, r.kind, r.name)
                for r in slow_trace.records]
        assert fast == slow

    def test_observability_does_not_perturb_results(self):
        """Bit-identical event histories and outputs with obs on vs off —
        the spans/metrics layer must never consume simulated time."""
        off_trace, off_out, off_now = mixed_workload_trace(observe=False)
        on_trace, on_out, on_now = mixed_workload_trace(observe=True)
        assert off_now == on_now
        assert off_out == on_out
        assert [tuple(r) for r in off_trace.records] == \
            [tuple(r) for r in on_trace.records]

    def test_empty_fault_plan_bit_identical_to_no_injector(self):
        """An attached injector whose plan has no episodes must make no
        draws and schedule no events: bit-identical to running without one."""
        from repro.faults import FaultPlan

        base_trace, base_out, base_now = mixed_workload_trace()
        inj_trace, inj_out, inj_now = mixed_workload_trace(
            fault_plan=FaultPlan())
        assert inj_out.pop("fault_events") == ()
        assert base_now == inj_now
        assert base_out == inj_out
        assert [tuple(r) for r in base_trace.records] == \
            [tuple(r) for r in inj_trace.records]

    def test_fault_plan_bit_identical_across_runs(self):
        """Identical seeds and fault plans produce identical event
        histories, outputs, and injected fault traces — and the faults do
        perturb the run relative to the clean baseline."""
        from repro.faults import CpuSlow, FaultPlan, NicStall

        plan = FaultPlan(seed=11, episodes=(
            CpuSlow(factor=1.5, jitter_ns=200),
            NicStall(extra_ns=300, start_ns=50_000, end_ns=500_000),
        ))
        first_trace, first_out, first_now = mixed_workload_trace(
            fault_plan=plan)
        second_trace, second_out, second_now = mixed_workload_trace(
            fault_plan=plan)
        assert first_now == second_now
        assert first_out == second_out          # includes the fault trace
        assert [tuple(r) for r in first_trace.records] == \
            [tuple(r) for r in second_trace.records]
        _bt, _bo, base_now = mixed_workload_trace()
        assert first_now > base_now             # the episodes really bit

    def test_observed_trace_export_byte_identical(self):
        """Two observed runs export byte-identical Perfetto JSON."""
        def observed_bytes():
            cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
            observer = cluster.observe()
            stacks = [SocketStack(node) for node in cluster.nodes]

            def server(node):
                stacks[0].listen()
                sock = yield from stacks[0].accept()
                data = yield from sock.recv_exactly(1000)
                yield from sock.send(data[::-1])

            def client(node):
                sock = yield from stacks[1].connect(0)
                yield from sock.send(bytes(range(200)) * 5)
                yield from sock.recv_exactly(1000)

            cluster.run([server, client])
            assert isinstance(observer, Observer) and observer.spans
            return dumps_deterministic(trace_events(observer.spans))

        assert observed_bytes() == observed_bytes()

    def test_results_correct_while_traced(self):
        _trace, outputs, _now = mixed_workload_trace()
        # allreduce of arange(4)*k for k=1..4 sums to 6 * 10 = 60.
        assert all(total == 60.0 for total, _d, _g in outputs.values())
        for rank in range(4):
            left = (rank - 1) % 4
            assert outputs[rank][1] == bytes([left]) * 200
        assert outputs[0][2] == 4
        _trace2, socket_out, _n = socket_workload_trace()
        assert socket_out["echo"] == (bytes(range(250)) * 20)[::-1]
