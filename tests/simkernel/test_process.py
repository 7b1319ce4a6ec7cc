"""Process semantics: generators, return values, exceptions, sleeps."""

import pytest

from repro.simkernel import Environment
from repro.simkernel.errors import SimulationError


class TestBasics:
    def test_requires_generator(self, env):
        with pytest.raises(TypeError, match="generator"):
            env.process(lambda: None)

    def test_return_value_is_event_value(self, env):
        def worker(env):
            yield env.timeout(5)
            return "result"
        proc = env.process(worker(env))
        assert env.run(until=proc) == "result"

    def test_implicit_none_return(self, env):
        def worker(env):
            yield env.timeout(1)
        proc = env.process(worker(env))
        assert env.run(until=proc) is None

    def test_process_waits_on_process(self, env):
        def inner(env):
            yield env.timeout(10)
            return 5
        def outer(env):
            value = yield env.process(inner(env))
            return value * 2
        proc = env.process(outer(env))
        assert env.run(until=proc) == 10

    def test_sequential_timeouts_accumulate(self, env):
        def worker(env):
            for _ in range(4):
                yield env.timeout(25)
        proc = env.process(worker(env))
        env.run(until=proc)
        assert env.now == 100

    def test_is_alive_flag(self, env):
        def worker(env):
            yield env.timeout(10)
        proc = env.process(worker(env))
        assert proc.is_alive
        env.run()
        assert not proc.is_alive

    def test_already_processed_event_continues_synchronously(self, env):
        done = env.event().succeed("x")
        env.run()
        def worker(env):
            value = yield done
            return value
        proc = env.process(worker(env))
        assert env.run(until=proc) == "x"


class TestErrors:
    def test_exception_fails_process(self, env):
        def worker(env):
            yield env.timeout(1)
            raise ValueError("inside")
        env.process(worker(env))
        with pytest.raises(ValueError, match="inside"):
            env.run()

    def test_exception_propagates_to_waiter(self, env):
        def inner(env):
            yield env.timeout(1)
            raise KeyError("inner-error")
        def outer(env):
            try:
                yield env.process(inner(env))
            except KeyError:
                return "caught"
        proc = env.process(outer(env))
        assert env.run(until=proc) == "caught"

    def test_yield_non_event_fails(self):
        """``yield 42`` is a sleep; a negative, ``bool`` or fractional delay
        is neither a sleep nor an event, on either execution path."""
        for bad in (-1, True, 4.2):
            for drive in ("run", "steps"):
                env = Environment()

                def worker(env):
                    yield bad
                env.process(worker(env), name="sleepy")
                with pytest.raises(SimulationError,
                                   match=rf"'sleepy' yielded {bad!r}: neither"):
                    env.run() if drive == "run" else env.run_steps(10)

    def test_yield_foreign_event_fails(self, env):
        other = Environment()
        def worker(env):
            yield other.timeout(1)
        env.process(worker(env))
        with pytest.raises(SimulationError, match="another environment"):
            env.run()


class TestSleep:
    """A process that yields an ``int`` sleeps: the process itself is the
    queue entry, keyed as ``env.timeout(delay)`` would have been."""

    def test_sleep_resumes_with_none_after_the_delay(self, env):
        def worker(env):
            got = yield 25
            slept_zero = yield 0
            return got, slept_zero, env.now
        assert env.run(until=env.process(worker(env))) == (None, None, 25)

    @pytest.mark.parametrize("drive", ["run", "steps"])
    def test_a_sleep_takes_the_place_of_a_timeout(self, drive):
        """Same (time, seq, priority) history and the same event count with
        the sleeps written as timeouts, on both execution paths."""
        from tests._tracer import Tracer

        def history(sleep):
            env = Environment()
            tracer = Tracer().attach(env)
            log = []

            def worker(me, delays):
                for delay in delays:
                    yield sleep(env, delay)
                    log.append((env.now, me))
            for me, delays in enumerate([(0, 3, 3), (3, 0, 0), (0, 0, 6)]):
                env.process(worker(me, delays))
            env.run() if drive == "run" else env.run_steps(1000)
            return ([(r.time, r.seq, r.priority) for r in tracer.records],
                    log, env.scheduled_events)

        assert (history(lambda env, delay: delay)
                == history(lambda env, delay: env.timeout(delay)))

    def test_run_until_a_sleeping_process_waits_for_its_end(self, env):
        def worker(env):
            yield 30
            yield 0
            yield 40
            return "up"
        proc = env.process(worker(env))
        env.run(until=5)
        assert proc.is_alive
        assert env.run(until=proc) == "up" and env.now == 70

    def test_joiners_of_a_sleeper_wait_for_its_end(self, env):
        def sleeper(env):
            yield 10
            return "rested"

        def joiner(env, target):
            return (yield target), env.now

        target = env.process(sleeper(env))
        joiners = [env.process(joiner(env, target)) for _ in range(2)]
        env.run()
        assert [j.value for j in joiners] == [("rested", 10)] * 2
