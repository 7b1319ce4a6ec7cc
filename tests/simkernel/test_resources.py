"""Resources: mutual exclusion, FIFO grant order, release."""

import gc

import pytest

from repro.simkernel import Environment, Resource
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
