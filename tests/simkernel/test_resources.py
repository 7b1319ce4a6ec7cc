"""Resources: mutual exclusion, FIFO grant order, release."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment, Resource
from repro.simkernel.errors import SimulationError
from repro.simkernel.resources import Request


def hold(env, resource, log, name, duration):
    req = resource.acquire()
    try:
        if req is not None:
            yield req
        log.append((name, "acquire", env.now))
        yield env.timeout(duration)
        log.append((name, "release", env.now))
    finally:
        resource.release(req)


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_under_capacity(self, env):
        resource = Resource(env, capacity=2)
        first, second = resource.request(), resource.request()
        assert first.triggered and second.triggered
        assert resource.count == 2

    def test_exclusion_capacity_one(self, env):
        resource = Resource(env)
        log = []
        env.process(hold(env, resource, log, "a", 100))
        env.process(hold(env, resource, log, "b", 50))
        env.run()
        assert log == [("a", "acquire", 0), ("a", "release", 100),
                       ("b", "acquire", 100), ("b", "release", 150)]

    def test_fifo_grant_order(self, env):
        resource = Resource(env)
        log = []
        for name in "abcd":
            env.process(hold(env, resource, log, name, 10))
        env.run()
        acquires = [entry[0] for entry in log if entry[1] == "acquire"]
        assert acquires == list("abcd")

    def test_overlap_at_capacity_two(self, env):
        resource = Resource(env, capacity=2)
        log = []
        for name in "abc":
            env.process(hold(env, resource, log, name, 100))
        env.run()
        # a and b run together; c starts when the first finishes.
        assert ("c", "acquire", 100) in log
        assert env.now == 200

    def test_release_is_idempotent(self, env):
        resource = Resource(env)
        req = resource.request()
        resource.release(req)
        resource.release(req)
        assert resource.count == 0

    def test_cancel_queued_request(self, env):
        resource = Resource(env)
        holder = resource.request()
        queued = resource.request()
        assert resource.queued == 1
        resource.release(queued)            # withdrawn, never granted
        assert resource.queued == 0
        resource.release(holder)
        assert resource.count == 0

    def test_queue_count(self, env):
        resource = Resource(env)
        resource.request()
        resource.request()
        resource.request()
        assert resource.count == 1
        assert resource.queued == 2

    def test_a_released_request_is_freed_by_refcount(self, env):
        """``run()`` pauses the cyclic collector, so a grant that made the
        request its own value (a cycle) lived until the run ended."""
        resource = Resource(env)

        def contender():
            for _ in range(3):
                yield from hold(env, resource, [], "x", 5)

        gc.collect()
        gc.disable()
        try:
            for _ in range(4):
                env.process(contender())
            env.run()
            assert resource.count == 0 and resource.queued == 0
            # This run's requests only: a generator an earlier property test
            # left parked on a lock can outlive ``gc.collect()`` with its own.
            assert not [obj for obj in gc.get_objects()
                        if isinstance(obj, Request) and obj.env is env]
        finally:
            gc.enable()


class TestMutex:
    """A lock is ``Resource(env)``: capacity one by default."""

    def test_locked_flag(self, env):
        mutex = Resource(env)
        assert mutex.count == 0
        mutex.request()
        assert mutex.count == 1

    def test_capacity_is_one(self, env):
        assert Resource(env).capacity == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(capacity=st.integers(1, 3),
       ops=st.lists(st.tuples(
           st.sampled_from(["acquire", "request", "release", "again", "bad"]),
           st.integers(0, 63)), max_size=40))
def test_the_counted_lock_matches_a_list_model(capacity, ops):
    """A held count and a FIFO of requests against two lists: the handles
    holding a slot and the requests waiting, oldest first.  ``release``
    frees a holder (the oldest waiter takes its slot) or withdraws a
    waiter; a second release of a request is a no-op and an int token
    other than 0 is rejected.  Nothing runs the clock, so every grant is
    seen as its request turning triggered."""
    env = Environment()
    lock = Resource(env, capacity)
    holders, waiters, spent = [], [], []
    for op, pick in ops:
        if op in ("acquire", "request"):
            handle = lock.acquire() if op == "acquire" else lock.request()
            if len(holders) < capacity:
                if op == "acquire":
                    assert handle is None or (type(handle) is int
                                              and handle == 0)
                else:
                    assert handle.triggered
                holders.append(handle)
            else:
                assert isinstance(handle, Request) and not handle.triggered
                waiters.append(handle)
        elif op == "release" and holders + waiters:
            index = pick % len(holders + waiters)
            if index < len(holders):
                handle = holders.pop(index)
                lock.release(handle)
                if waiters:
                    holders.append(waiters.pop(0))
            else:
                handle = waiters.pop(index - len(holders))
                lock.release(handle)
                assert not handle.triggered       # withdrawn, never granted
            if isinstance(handle, Request):
                spent.append(handle)
        elif op == "again" and spent:
            lock.release(spent[pick % len(spent)])
        elif op == "bad":
            with pytest.raises(SimulationError, match="not a token"):
                lock.release(pick + 1)
        assert lock.count == len(holders)
        assert lock.queued == len(waiters)
        assert all(handle.triggered for handle in holders
                   if isinstance(handle, Request))
        assert not any(handle.triggered for handle in waiters)
