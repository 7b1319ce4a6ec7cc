"""Environment: clock, deterministic ordering, run modes."""

import pytest

from repro.simkernel import (Environment, PRIORITY_HIGH, PRIORITY_LOW,
                             PRIORITY_NORMAL)
from repro.simkernel.errors import SimulationError
from tests._tracer import Tracer


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0

    def test_custom_initial_time(self):
        assert Environment(initial_time=500).now == 500

    def test_invalid_initial_time(self):
        with pytest.raises(ValueError):
            Environment(initial_time=-1)
        with pytest.raises(ValueError):
            Environment(initial_time=1.5)

    def test_time_advances_monotonically(self, env):
        times = []
        env.trace = lambda t, e: times.append(t)
        env.timeout(30)
        env.timeout(10)
        env.timeout(20)
        env.run()
        assert times == sorted(times) == [10, 20, 30]


class TestOrdering:
    def test_same_time_fifo_by_schedule_order(self, env):
        order = []
        for name in "abc":
            env.timeout(10, value=name).callbacks.append(
                lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]

    def test_priority_beats_schedule_order(self, env):
        order = []
        low = env.event()
        high = env.event()
        low.callbacks.append(lambda e: order.append("low"))
        high.callbacks.append(lambda e: order.append("high"))
        low.succeed(priority=PRIORITY_LOW)
        high.succeed(priority=PRIORITY_HIGH)
        env.run()
        assert order == ["high", "low"]

    def test_determinism_across_runs(self):
        def build_and_run():
            env = Environment()
            log = []
            def worker(env, name, delays):
                for d in delays:
                    yield env.timeout(d)
                    log.append((env.now, name))
            env.process(worker(env, "x", [3, 3, 3]))
            env.process(worker(env, "y", [2, 4, 3]))
            env.process(worker(env, "z", [9]))
            env.run()
            return log
        assert build_and_run() == build_and_run()


class TestRunModes:
    def test_run_to_quiescence(self, env):
        env.timeout(5)
        env.timeout(15)
        env.run()
        assert env.now == 15
        assert env.peek() is None

    def test_run_until_time(self, env):
        fired = []
        env.timeout(10).callbacks.append(lambda e: fired.append(10))
        env.timeout(100).callbacks.append(lambda e: fired.append(100))
        env.run(until=50)
        assert fired == [10]
        assert env.now == 50

    def test_run_until_time_advances_clock_even_if_idle(self, env):
        env.run(until=1000)
        assert env.now == 1000

    def test_run_until_past_time_rejected(self, env):
        env.timeout(10)
        env.run()
        with pytest.raises(ValueError, match="past"):
            env.run(until=5)

    def test_run_until_event_returns_value(self, env):
        timeout = env.timeout(42, value="v")
        assert env.run(until=timeout) == "v"
        assert env.now == 42

    def test_run_until_event_deadlock_detected(self, env):
        never = env.event()
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=never)

    def test_run_until_failed_event_raises(self, env):
        def worker(env):
            yield env.timeout(1)
            raise RuntimeError("worker died")
        proc = env.process(worker(env))
        with pytest.raises(RuntimeError, match="worker died"):
            env.run(until=proc)

    def test_run_until_already_processed_event(self, env):
        timeout = env.timeout(1, value="done")
        env.run()
        assert env.run(until=timeout) == "done"

    def test_run_until_bad_type(self, env):
        with pytest.raises(TypeError):
            env.run(until="soon")

    def test_step_on_empty_heap_rejected(self, env):
        with pytest.raises(SimulationError, match="empty"):
            env.step()

    def test_peek_returns_next_time(self, env):
        env.timeout(30)
        env.timeout(7)
        assert env.peek() == 7

    def test_schedule_into_past_rejected(self, env):
        event = env.event()
        with pytest.raises(ValueError, match="past"):
            env.schedule(event, delay=-5)


class TestStopMarker:
    """``run(until=<int>)`` is the one drain loop stopped by a marker in
    the heap; the marker is the kernel's own and must never show."""

    @staticmethod
    def _model(env, log):
        def ticker(name, period):
            while True:
                yield env.timeout(period)
                log.append((env.now, name))
        env.process(ticker("a", 3))
        env.process(ticker("b", 5))

    def test_marker_is_never_traced_or_counted(self):
        traced, stepped = Environment(), Environment()
        tracer = Tracer().attach(traced)
        log, reference = [], []
        self._model(traced, log)
        self._model(stepped, reference)
        traced.run(until=15)
        # 3, 5, 6, 9, 10, 12, 15, 15: what falls due by 15, marker excluded.
        while stepped.peek() is not None and stepped.peek() <= 15:
            stepped.run_steps(1)
        assert log == reference and log[-2:] == [(15, "b"), (15, "a")]
        assert traced.scheduled_events == stepped.scheduled_events
        assert traced.now == 15 and traced.peek() == 18
        # Two process starts + the eight timeouts; every record decodes to
        # a model priority.
        assert len(tracer.records) == 2 + len(log)
        assert {r.priority for r in tracer.records} == {PRIORITY_NORMAL}

    def test_everything_due_at_until_fires_before_run_returns(self, env):
        fired = []

        def at_until(event):
            fired.append("first")
            # Scheduled while the instant itself is being processed.
            env.timeout(0, priority=PRIORITY_LOW).callbacks.append(
                lambda e: fired.append("low"))
            env.timeout(0).callbacks.append(lambda e: fired.append("normal"))

        env.timeout(20).callbacks.append(at_until)
        env.timeout(20, priority=PRIORITY_LOW).callbacks.append(
            lambda e: fired.append("low, scheduled ahead"))
        env.timeout(21).callbacks.append(lambda e: fired.append("late"))
        env.run(until=20)
        assert fired == ["first", "normal", "low, scheduled ahead", "low"]
        assert env.now == 20 and env.peek() == 21

    def test_exception_does_not_leave_a_stale_marker(self, env):
        def boom():
            yield env.timeout(10)
            raise RuntimeError("boom")
        env.process(boom(), name="boom")
        env.timeout(30)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=500)
        env.run()
        assert env.now == 30

    def test_instant_of_until_is_not_quiet(self, env):
        seen = []
        env.timeout(10).callbacks.append(lambda e: seen.append(env.quiet))
        env.timeout(20).callbacks.append(lambda e: seen.append(env.quiet))
        env.run(until=20)
        assert seen == [True, False]


class TestGcRestoredOnError:
    """A crashing model must never leave the cyclic GC disabled.

    ``run()`` pauses the collector for the drain and restores it in a
    ``finally`` — pinned here for each of the three ``until`` forms by
    raising out of a process mid-run.
    """

    @staticmethod
    def _boom(env):
        def proc():
            yield env.timeout(10)
            raise RuntimeError("boom")
        env.process(proc(), name="boom")

    @pytest.mark.parametrize("until", [None, 100, "event"])
    def test_gc_enabled_after_mid_run_exception(self, env, until):
        import gc
        self._boom(env)
        if until == "event":
            until = env.timeout(100)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=until)
        assert gc.isenabled()
