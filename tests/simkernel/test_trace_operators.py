"""Tracer: the test-side event recorder chained on ``env.trace``."""

import pytest

from repro.simkernel import Environment
from tests._tracer import Tracer


class TestTracer:
    def run_sample(self, tracer=None):
        env = Environment()
        if tracer is not None:
            tracer.attach(env)
        def worker(env):
            yield env.timeout(10)
            yield env.timeout(20)
        env.process(worker(env), name="sample-worker")
        env.run()
        return env

    def test_records_timeouts_and_process(self):
        tracer = Tracer()
        self.run_sample(tracer)
        assert "sample-worker" in tracer.names("process")
        assert "+10" in tracer.names("timeout")
        assert len(tracer) >= 3

    def test_records_are_time_ordered(self):
        tracer = Tracer()
        self.run_sample(tracer)
        times = [r.time for r in tracer.records]
        assert times == sorted(times)

    def test_keep_filter(self):
        tracer = Tracer(keep=lambda r: r.kind == "process")
        self.run_sample(tracer)
        assert all(r.kind == "process" for r in tracer.records)

    def test_between_query(self):
        tracer = Tracer()
        self.run_sample(tracer)
        early = tracer.between(0, 11)
        assert all(r.time <= 10 for r in early)

    def test_timeline_renders(self):
        tracer = Tracer()
        self.run_sample(tracer)
        text = tracer.timeline(limit=2)
        assert "ns" in text
        assert "more" in text or len(tracer) <= 2

    def test_detach_restores(self):
        env = Environment()
        tracer = Tracer().attach(env)
        tracer.detach(env)
        assert env.trace is None

    def test_detach_out_of_lifo_keeps_other_tracers(self):
        """Regression: detaching a non-head tracer used to clobber the
        whole chain back to its own predecessor, silently disabling every
        tracer attached after it."""
        env = Environment()
        first = Tracer().attach(env)
        middle = Tracer().attach(env)
        last = Tracer().attach(env)
        middle.detach(env)

        def worker(env):
            yield env.timeout(10)
        env.process(worker(env))
        env.run()
        assert len(first) > 0
        assert len(last) > 0
        assert len(middle) == 0

    def test_detach_any_order_empties_chain(self):
        env = Environment()
        tracers = [Tracer().attach(env) for _ in range(3)]
        tracers[1].detach(env)
        tracers[0].detach(env)
        tracers[2].detach(env)
        assert env.trace is None

    def test_detach_not_attached_raises(self):
        env = Environment()
        stranger = Tracer()
        with pytest.raises(ValueError):
            stranger.detach(env)
        Tracer().attach(env)
        with pytest.raises(ValueError):
            stranger.detach(env)

    def test_chained_tracers_both_record(self):
        env = Environment()
        inner = Tracer().attach(env)
        outer = Tracer().attach(env)

        def worker(env):
            yield env.timeout(10)
        env.process(worker(env))
        env.run()
        assert [tuple(r) for r in inner.records] == \
            [tuple(r) for r in outer.records]

    def test_chains_previous_hook(self):
        env = Environment()
        seen = []
        env.trace = lambda t, e: seen.append(t)
        tracer = Tracer().attach(env)
        env.timeout(5)
        env.run()
        assert seen == [5]
        assert len(tracer) == 1

    def test_identical_runs_trace_identically(self):
        first, second = Tracer(), Tracer()
        self.run_sample(first)
        self.run_sample(second)
        assert [tuple(r) for r in first.records] == \
            [tuple(r) for r in second.records]

    def test_fm_run_traceable(self, fm2_cluster):
        """End to end: an FM 2.x handler is a coroutine of the extracting
        program — no process of its own, its charges fire under the
        receiver's."""
        tracer = Tracer().attach(fm2_cluster.env)
        ran_in = []

        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)
            ran_in.append((fm.env.active_process.name, fm.env.now))

        hid = {n.fm.register_handler(handler)
               for n in fm2_cluster.nodes}.pop()

        def sender(node):
            buf = node.buffer(64)
            yield from node.fm.send_buffer(1, hid, buf, 64)

        def receiver(node):
            while not ran_in:
                got = yield from node.fm.extract()
                if not got:
                    yield node.env.timeout(500)

        fm2_cluster.run([sender, receiver])
        [(process, finished_at)] = ran_in
        assert process == "prog@1"
        assert set(tracer.names("process")) == {"prog@0", "prog@1"}
        # The one deposit of the 64 bytes is a traced sleep of the receiving
        # program ending where the handler resumed; nothing here holds a
        # timeout but the receiver's back-off.
        assert any(r.name == "prog@1" and r.time == finished_at
                   for r in tracer.records if r.kind == "sleep")
        assert set(tracer.names("timeout")) <= {"+500"}
