"""Property-based tests of the kernel's core invariants."""

from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment, Resource, Store


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
