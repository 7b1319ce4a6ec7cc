"""Stores: bounded FIFO queues with blocking put/get (back-pressure)."""

import pytest

from repro.simkernel import Environment, Store


class TestBasics:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)
        with pytest.raises(ValueError):
            Store(env, capacity=2.5)

    def test_put_get_fifo(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)
        received = []
        def consumer(env):
            for _ in range(5):
                received.append((yield store.get()))
        proc = env.process(consumer(env))
        env.run(until=proc)
        assert received == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        def consumer(env):
            item = yield store.get()
            return (item, env.now)
        def producer(env):
            yield env.timeout(40)
            yield store.put("late")
        proc = env.process(consumer(env))
        env.process(producer(env))
        assert env.run(until=proc) == ("late", 40)

    def test_put_blocks_when_full(self, env):
        store = Store(env, capacity=1)
        times = []
        def producer(env):
            for i in range(3):
                yield store.put(i)
                times.append(env.now)
        def consumer(env):
            for _ in range(3):
                yield env.timeout(100)
                yield store.get()
        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [0, 100, 200]

    def test_level_and_is_full(self, env):
        store = Store(env, capacity=2)
        assert store.level == 0 and not store.is_full
        store.put("a")
        store.put("b")
        assert store.level == 2 and store.is_full

    def test_backpressure_chain(self, env):
        """A chain of bounded stores propagates stalls to the head."""
        first = Store(env, capacity=1)
        second = Store(env, capacity=1)
        put_times = []

        def producer(env):
            for i in range(4):
                yield first.put(i)
                put_times.append(env.now)

        def relay(env):
            while True:
                item = yield first.get()
                yield second.put(item)

        def slow_consumer(env):
            while True:
                yield env.timeout(100)
                yield second.get()

        env.process(producer(env))
        env.process(relay(env))
        env.process(slow_consumer(env))
        env.run(until=500)
        # Producer is throttled to roughly the consumer's rate.
        assert put_times[0] == 0
        assert put_times[-1] >= 100


class TestTryGet:
    def test_returns_item_or_none(self, env):
        store = Store(env)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_rejected_with_queued_getters(self, env):
        store = Store(env)
        store.get()  # now a blocking getter is queued
        with pytest.raises(RuntimeError, match="FIFO"):
            store.try_get()

    def test_unblocks_pending_put(self, env):
        store = Store(env, capacity=1)
        store.put("a")
        pending = store.put("b")
        assert not pending.triggered
        assert store.try_get() == "a"
        assert pending.triggered
        assert store.level == 1
