"""Event lifecycle, triggering, and the two multi-event waits."""

import pytest

from repro.simkernel import Environment, Event, Timeout
from repro.simkernel.errors import EventAlreadyTriggered


class TestEventLifecycle:
    def test_starts_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        event = env.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_succeed_sets_value(self, env):
        event = env.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_processed_after_run(self, env):
        event = env.event().succeed("x")
        env.run()
        assert event.processed

    def test_double_succeed_rejected(self, env):
        event = env.event().succeed(1)
        with pytest.raises(EventAlreadyTriggered):
            event.succeed(2)

    def test_fail_then_succeed_rejected(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        with pytest.raises(EventAlreadyTriggered):
            event.succeed(1)

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_marks_not_ok(self, env):
        event = env.event()
        event.fail(RuntimeError("x"))
        assert event.triggered
        assert not event.ok

    def test_undefused_failure_propagates_from_run(self, env):
        env.event().fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_callbacks_receive_event(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(seen.append)
        event.succeed(7)
        env.run()
        assert seen == [event]


class TestTimeout:
    def test_fires_after_delay(self, env):
        timeout = env.timeout(100, value="done")
        env.run()
        assert env.now == 100
        assert timeout.value == "done"

    def test_zero_delay_fires_now(self, env):
        env.timeout(0)
        env.run()
        assert env.now == 0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_float_delay_rejected(self, env):
        with pytest.raises(TypeError, match="integer"):
            env.timeout(1.5)

    def test_is_pretriggered(self, env):
        assert env.timeout(10).triggered


class TestAllOf:
    """``Environment.all_of``: a counter join, one plain event."""

    def test_waits_for_all(self, env):
        a, b = env.timeout(10, value=1), env.timeout(30, value=2)
        cond = env.all_of([a, b])
        assert type(cond) is Event
        assert env.run(until=cond) is None
        assert env.now == 30

    def test_empty_fires_immediately(self, env):
        assert env.all_of([]).triggered

    def test_cross_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError, match="environment"):
            env.all_of([other.timeout(1)])

    def test_failure_fails_allof(self, env):
        event = env.event()
        cond = env.all_of([event, env.timeout(100)])
        event.fail(KeyError("inner"))
        with pytest.raises(KeyError):
            env.run(until=cond)

    def test_a_later_failure_is_defused(self, env):
        first, second = env.event(), env.event()
        cond = env.all_of([first, second, env.timeout(100)])
        first.fail(KeyError("first"))
        second.fail(ValueError("second"))
        with pytest.raises(KeyError):
            env.run(until=cond)
        env.run()                       # the second failure raises nowhere
        assert env.now == 100

    def test_an_already_fired_event_counts(self, env):
        done = env.event().succeed()
        env.run()
        env.run(until=env.all_of([done, env.timeout(5)]))
        assert env.now == 5


class TestWake:
    """``Event.wake``: the idempotent trigger behind ``first_of``."""

    def test_wakes_a_pending_event_once(self, env):
        event = env.event()
        event.wake()
        assert event.triggered and event.ok and event.value is None
        before = env.scheduled_events
        event.wake()                       # no EventAlreadyTriggered ...
        event.wake(env.timeout(1))
        assert env.scheduled_events == before + 1   # ... only the timer
        env.run()
        assert event.processed

    def test_is_a_callback(self, env):
        event = env.event()
        timer = env.timeout(10, value="ignored")
        timer.callbacks.append(event.wake)
        env.run(until=event)
        assert env.now == 10 and event.value is None

    def test_failed_source_fails_the_waiter_and_is_defused(self, env):
        event, source = env.event(), env.event()
        source.callbacks.append(event.wake)
        source.fail(ValueError("inner"))
        with pytest.raises(ValueError, match="inner"):
            env.run(until=event)
        env.run()                          # neither failure escapes run()

    def test_late_failure_is_defused_not_delivered(self, env):
        event, source = env.event(), env.event()
        source.callbacks.append(event.wake)
        event.wake()
        source.fail(ValueError("late"))
        env.run()
        assert event.ok and not source.ok


class TestFirstOf:
    def test_returns_the_event_woken_by_the_delay(self, env):
        event = env.event()
        assert env.first_of(event, 25) is event
        env.run(until=event)
        assert env.now == 25

    def test_the_event_itself_wins_in_one_hop(self, env):
        seen = []

        def waiter():
            event = env.event()
            env.timeout(5).callbacks.append(lambda _timer: (
                event.succeed(), seen.append((env.now, env.scheduled_events))))
            yield env.first_of(event, 1_000)
            seen.append((env.now, env.scheduled_events))

        env.process(waiter())
        env.run()
        # Nothing is scheduled between the succeed and the waiter resuming.
        assert seen[0] == seen[1] and seen[0][0] == 5
        assert env.now == 1_000            # the cap still fires, for nobody

    def test_first_of_several_alternatives(self, env):
        request = env.event()
        wait = env.first_of(env.event(), request, 50)
        request.succeed("response")
        env.run(until=wait)
        assert env.now == 0 and wait.value is None and request.value == "response"

    def test_already_fired_alternative(self, env):
        fired = env.event().succeed()
        env.run()
        wait = env.first_of(env.event(), fired)
        assert wait.triggered

    def test_failed_alternative_is_thrown_into_the_waiter(self, env):
        caught = []

        def boom():
            yield env.timeout(3)
            raise KeyError("handler")

        def waiter():
            try:
                yield env.first_of(env.event(), env.process(boom()))
            except KeyError as exc:
                caught.append((env.now, exc.args))

        env.process(waiter())
        env.run()
        assert caught == [(3, ("handler",))]

    def test_cross_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError, match="environment"):
            env.first_of(env.event(), other.timeout(1))
        with pytest.raises(ValueError, match="environment"):
            env.first_of(other.event(), 1)
