"""Process semantics: generators, return values, exceptions, interrupts."""

import pytest

from repro.simkernel import Environment, Interrupt, StopProcess
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

    def test_stop_process_ends_with_value(self, env):
        def worker(env):
            yield env.timeout(1)
            raise StopProcess("early")
            yield env.timeout(100)  # pragma: no cover
        proc = env.process(worker(env))
        assert env.run(until=proc) == "early"
        assert env.now == 1

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

    def test_active_process_count(self, env):
        def worker(env):
            yield env.timeout(10)
        env.process(worker(env))
        env.process(worker(env))
        assert env.active_process_count == 2
        env.run()
        assert env.active_process_count == 0

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


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        def sleeper(env):
            try:
                yield env.timeout(1000)
            except Interrupt as interrupt:
                return ("woken", interrupt.cause, env.now)
        def waker(env, target):
            yield env.timeout(50)
            target.interrupt("alarm")
        proc = env.process(sleeper(env))
        env.process(waker(env, proc))
        assert env.run(until=proc) == ("woken", "alarm", 50)

    def test_interrupted_process_can_rewait(self, env):
        def sleeper(env):
            timeout = env.timeout(100)
            try:
                yield timeout
            except Interrupt:
                yield timeout       # resume waiting on the same event
                return env.now
        def waker(env, target):
            yield env.timeout(10)
            target.interrupt()
        proc = env.process(sleeper(env))
        env.process(waker(env, proc))
        assert env.run(until=proc) == 100

    def test_uncaught_interrupt_fails_process(self, env):
        def sleeper(env):
            yield env.timeout(1000)
        def waker(env, target):
            yield env.timeout(1)
            target.interrupt("bye")
        proc = env.process(sleeper(env))
        env.process(waker(env, proc))
        with pytest.raises(Interrupt):
            env.run()

    def test_interrupt_dead_process_rejected(self, env):
        def quick(env):
            yield env.timeout(1)
        proc = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError, match="dead"):
            proc.interrupt()

    def test_self_interrupt_rejected(self, env):
        def worker(env):
            yield env.timeout(0)
            me = env.active_process
            me.interrupt()
        env.process(worker(env))
        with pytest.raises(SimulationError, match="itself"):
            env.run()

    def test_interrupt_after_completion_race_is_noop(self, env):
        # Interrupt scheduled, but the process ends at the same instant.
        def sleeper(env):
            yield env.timeout(10)
            return "done"
        def waker(env, target):
            yield env.timeout(10)
            if target.is_alive:
                target.interrupt()
        proc = env.process(sleeper(env))
        env.process(waker(env, proc))
        assert env.run(until=proc) == "done"


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

    def test_interrupt_mid_sleep_resumes_once(self, env):
        resumed = []

        def sleeper(env):
            try:
                yield 100
                resumed.append(("woke", env.now))
            except Interrupt:
                resumed.append(("interrupted", env.now))
            yield 500
            resumed.append(("done", env.now))

        def waker(env, target):
            target.interrupt()
            yield 0

        proc = env.process(sleeper(env))
        env.run(until=0)                        # the sleeper is asleep now
        env.process(waker(env, proc))
        env.run()
        assert resumed == [("interrupted", 0), ("done", 500)]
        assert not proc.is_alive

    def test_an_interrupt_cancels_a_zero_sleep_taken_after_it(self, env):
        """Interrupted while waiting on an event, the process is resumed by
        that event first and goes into ``yield 0`` before the interrupt is
        delivered: the interrupt cancels the zero-length sleep instead."""
        gate = env.event()
        log = []

        def sleeper(env):
            yield gate
            try:
                yield 0
                log.append("slept")
            except Interrupt:
                log.append(("interrupted", env.now))
            yield 5
            log.append(("done", env.now))

        def kicker(env, target):
            gate.succeed()
            target.interrupt()              # queued behind the gate
            yield 0

        proc = env.process(sleeper(env))
        env.run(until=0)
        env.process(kicker(env, proc))
        env.run()
        assert log == [("interrupted", 0), ("done", 5)]

    def test_a_stale_entry_does_not_wake_a_new_sleep(self, env):
        """Interrupted at 10 out of a sleep until 50, the process sleeps
        again until 100: the old entry at 50 must not wake it."""
        woke = []

        def sleeper(env):
            try:
                yield 50
            except Interrupt:
                pass
            yield 90
            woke.append(env.now)

        def waker(env, target):
            yield 10
            target.interrupt()

        proc = env.process(sleeper(env))
        env.process(waker(env, proc))
        env.run(until=60)
        assert woke == [] and proc.is_alive and proc.target is None
        env.run()
        assert woke == [100]

    def test_a_stale_entry_outlives_its_process(self, env):
        """The process ends at the instant its cancelled sleep was due."""
        def sleeper(env):
            try:
                yield 10
            except Interrupt:
                yield 10 - env.now
            return env.now

        def waker(env, target):
            yield 5
            target.interrupt()

        proc = env.process(sleeper(env))
        env.process(waker(env, proc))
        assert env.run(until=proc) == 10
        env.run()
        assert env.now == 10 and not env._heap and not env._imm

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
