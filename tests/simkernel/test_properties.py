"""Property-based tests of the kernel's core invariants."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment, Resource, Store
from repro.simkernel.store import EMPTY


@settings(max_examples=50, deadline=None)
@given(items=st.lists(st.integers(), min_size=1, max_size=30),
       capacity=st.integers(min_value=1, max_value=5),
       consumer_delay=st.integers(min_value=0, max_value=50),
       producer_delay=st.integers(min_value=0, max_value=50))
def test_store_preserves_fifo_order(items, capacity, consumer_delay,
                                    producer_delay):
    """Whatever the timing and capacity, items come out in insertion order."""
    env = Environment()
    store = Store(env, capacity=capacity)
    received = []

    def producer(env):
        for item in items:
            if producer_delay:
                yield env.timeout(producer_delay)
            yield store.put(item)

    def consumer(env):
        for _ in items:
            if consumer_delay:
                yield env.timeout(consumer_delay)
            received.append((yield store.get()))

    env.process(producer(env))
    proc = env.process(consumer(env))
    env.run(until=proc)
    assert received == items


@settings(max_examples=50, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=4),
       durations=st.lists(st.integers(min_value=1, max_value=100),
                          min_size=1, max_size=20))
def test_resource_never_exceeds_capacity(capacity, durations):
    """Concurrent holders never exceed the declared capacity."""
    env = Environment()
    resource = Resource(env, capacity=capacity)
    active = [0]
    max_active = [0]

    def worker(env, duration):
        req = resource.acquire()
        try:
            if req is not None:
                yield req
            active[0] += 1
            max_active[0] = max(max_active[0], active[0])
            yield env.timeout(duration)
            active[0] -= 1
        finally:
            resource.release(req)

    for duration in durations:
        env.process(worker(env, duration))
    env.run()
    assert max_active[0] <= capacity
    assert active[0] == 0


@settings(max_examples=30, deadline=None)
@given(delays=st.lists(st.integers(min_value=0, max_value=1000),
                       min_size=2, max_size=30))
def test_event_firing_order_matches_delay_order(delays):
    """Events fire in (time, schedule-order): a stable sort of the delays."""
    env = Environment()
    fired = []
    for index, delay in enumerate(delays):
        env.timeout(delay, value=index).callbacks.append(
            lambda e: fired.append(e.value))
    env.run()
    expected = [i for _, i in sorted((d, i) for i, d in enumerate(delays))]
    assert fired == expected


@settings(max_examples=30, deadline=None)
@given(seed_ops=st.lists(st.sampled_from(["put", "get"]), min_size=1,
                         max_size=40))
def test_store_conservation(seed_ops):
    """Items are neither lost nor duplicated through any put/get schedule."""
    env = Environment()
    store = Store(env, capacity=3)
    put_count = sum(1 for op in seed_ops if op == "put")
    received = []

    def producer(env):
        for i in range(put_count):
            yield store.put(i)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(put_count):
            received.append((yield store.get()))

    env.process(producer(env))
    proc = env.process(consumer(env))
    env.run(until=proc)
    assert received == list(range(put_count))


class _StoreModel:
    """A deque model of :class:`Store`: items, then the blocked putters
    ``(id, item)`` and getters ``id`` in FIFO order; ``fired`` is the order
    in which waiting operations complete."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = deque()
        self.putters = deque()
        self.getters = deque()
        self.fired = []

    def _admit_one_putter(self):
        if self.putters:
            op_id, item = self.putters.popleft()
            self.items.append(item)
            self.fired.append((op_id, item))

    def put(self, op_id, item):
        if self.putters or len(self.items) >= self.capacity:
            self.putters.append((op_id, item))
            return
        self.items.append(item)
        self.fired.append((op_id, item))
        if self.getters:
            self.fired.append((self.getters.popleft(), self.items.popleft()))

    def get(self, op_id):
        if self.getters or not self.items:
            self.getters.append(op_id)
            return
        self.fired.append((op_id, self.items.popleft()))
        self._admit_one_putter()

    def put_now(self, item):
        if self.putters or len(self.items) >= self.capacity:
            return False
        if self.getters:
            self.fired.append((self.getters.popleft(), item))
        else:
            self.items.append(item)
        return True

    def take(self, empty):
        """``try_get`` / ``get_now``: pop and admit at most one putter."""
        if not self.items:
            return empty
        item = self.items.popleft()
        self._admit_one_putter()
        return item


@settings(max_examples=60, deadline=None, derandomize=True)
@given(capacity=st.integers(min_value=1, max_value=4),
       ops=st.lists(st.sampled_from(
           ["put", "get", "try_get", "put_now", "get_now"]), max_size=40))
def test_store_matches_a_deque_model(capacity, ops):
    """Every operation against its model: the items in FIFO order, blocked
    putters and getters completed in FIFO order, and ``try_get`` /
    ``get_now`` admitting exactly one queued put per item taken."""
    env = Environment()
    store = Store(env, capacity=capacity)
    model = _StoreModel(capacity)
    fired = []
    events = []                    # held, so the kernel never recycles them
    for op_id, op in enumerate(ops):
        if op == "put":
            event = store.put(op_id)
            model.put(op_id, op_id)
        elif op == "get":
            event = store.get()
            model.get(op_id)
        else:
            event = None
            if op == "put_now":
                assert store.put_now(op_id) == model.put_now(op_id)
            elif op == "get_now":
                assert store.get_now() == model.take(EMPTY)
            elif model.getters:
                with pytest.raises(RuntimeError):
                    store.try_get()
            else:
                assert store.try_get() == model.take(None)
        if event is not None:
            event.callbacks.append(
                lambda ev, op_id=op_id: fired.append((op_id, ev.value)))
            events.append(event)
        env.run()
        assert fired == model.fired
        assert list(store.items) == list(model.items)
