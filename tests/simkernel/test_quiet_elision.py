"""Quiet-instant handshake elision: order preservation, executable.

At a quiet instant (``Environment.quiet``) an uncontended ``Resource``
grant or ``Store`` admit is performed inline instead of through an event.
The claim is that this executes the same model actions in the same order.
The property test checks it on random small models full of same-nanosecond
collisions and shared events, against the same model run with
the primitives declining; the unit tests pin the bookkeeping an inline hold
must keep.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simkernel import Environment, Resource, Store
from repro.simkernel.errors import SimulationError
from repro.simkernel.resources import Request, Resource
from repro.simkernel.store import EMPTY

from tests._elision import elision_declined

# -- the property ---------------------------------------------------------------
#: Few distinct delays, zero included, so processes collide on a nanosecond.
DELAYS = st.sampled_from([0, 1, 2, 5])
INDEX = st.integers(min_value=0, max_value=5)
OPS = st.one_of(
    st.tuples(st.just("hold"), INDEX, DELAYS),
    st.tuples(st.just("put"), INDEX, st.integers(0, 99)),
    st.tuples(st.just("get"), INDEX, st.just(0)),
    st.tuples(st.just("sleep"), INDEX, DELAYS),
    st.tuples(st.just("join"), INDEX, st.just(0)),
)
MODELS = st.fixed_dictionaries({
    "resources": st.lists(st.integers(1, 2), min_size=1, max_size=2),
    "stores": st.lists(st.integers(1, 2), min_size=1, max_size=2),
    "programs": st.lists(st.lists(OPS, max_size=8), min_size=2, max_size=5),
    "driver": st.sampled_from(["run", "steps", "until"]),
})


def simulate(model, tokens=None):
    """Run one model; returns ``(log, env)``, the log being every model
    action as ``(time, actor, action, detail)`` in execution order.
    ``tokens`` collects what each ``acquire()`` returned: ``0``, ``None``
    or the type of the event."""
    env = Environment()
    resources = [Resource(env, capacity=c) for c in model["resources"]]
    stores = [Store(env, capacity=c) for c in model["stores"]]
    procs: list = []
    log: list[tuple] = []

    def worker(me, program):
        for kind, which, arg in program:
            if kind == "hold":
                resource = resources[which % len(resources)]
                req = resource.acquire()
                if tokens is not None:
                    tokens.append(req if req in (0, None) else type(req))
                try:
                    if req is not None:
                        yield req
                    log.append((env.now, me, "acquired", which))
                    yield env.timeout(arg)
                finally:
                    resource.release(req)
                log.append((env.now, me, "released", which))
            elif kind == "put":
                store = stores[which % len(stores)]
                if not store.put_now(arg):
                    yield store.put(arg)
                log.append((env.now, me, "put", arg))
            elif kind == "get":
                store = stores[which % len(stores)]
                item = store.get_now()
                if item is EMPTY:
                    item = yield store.get()
                log.append((env.now, me, "got", item))
            elif kind == "sleep":
                yield env.timeout(arg)
                log.append((env.now, me, "slept", arg))
            elif kind == "join" and me:
                # Several joiners of one process make a multi-callback
                # event: the case the fan-out guard exists for.
                yield procs[which % me]
                log.append((env.now, me, "joined", which % me))

    for me, program in enumerate(model["programs"]):
        procs.append(env.process(worker(me, program), name=f"p{me}"))
    if model["driver"] == "run":
        env.run()
    elif model["driver"] == "steps":
        env.run_steps(100_000)
    else:
        env.run(until=40)
    log.append((env.now, -1, "end", [r.count for r in resources]
                + [s.level for s in stores]))
    return log, env


#: Two joiners of one process: when it ends its event has two callbacks, and
#: eliding the first joiner's grant would run its hold ahead of the second
#: joiner's sleep — their equal timeouts would then fire in swapped order.
#: ``Environment.quiet`` is false during such a dispatch for this reason.
FANOUT_MODEL = {"resources": [1], "stores": [1], "driver": "run",
                "programs": [[("sleep", 0, 1)],
                             [("join", 0, 0), ("hold", 0, 5)],
                             [("join", 0, 0), ("sleep", 0, 5)]]}


@settings(max_examples=300, deadline=None)
@given(model=MODELS)
@example(model=FANOUT_MODEL)
@example(model={**FANOUT_MODEL, "driver": "steps"})
@example(model={**FANOUT_MODEL, "driver": "until"})
def test_elision_preserves_the_order_of_model_actions(model):
    live_log, live = simulate(model)
    with elision_declined():
        reference_log, reference = simulate(model)
    assert live_log == reference_log
    assert reference.elided == 0
    assert live.scheduled_events + live.elided == reference.scheduled_events


def test_the_property_exercises_the_fast_path():
    """A guard on the generator above: a plain two-process model elides
    its grant, its put and its get (process start-up is never quiet)."""
    model = {"resources": [1], "stores": [1], "driver": "run",
             "programs": [[("sleep", 0, 1), ("hold", 0, 5), ("put", 0, 7)],
                          [("sleep", 0, 5), ("sleep", 0, 5), ("get", 0, 0)]]}
    _log, env = simulate(model)
    assert env.elided == 3


def test_the_property_exercises_every_acquire_outcome():
    """Three processes start on one nanosecond and want one lock: the
    first finds it free at an instant that is not quiet, the others find
    it busy; once they are through, the first comes back alone."""
    model = {"resources": [1], "stores": [1], "driver": "run",
             "programs": [[("hold", 0, 5), ("sleep", 0, 5), ("hold", 0, 1)],
                          [("hold", 0, 2)],
                          [("hold", 0, 2)]]}
    tokens = []
    _log, env = simulate(model, tokens)
    assert tokens == [0, Request, Request, None]
    assert env.elided == 1
    with elision_declined():
        tokens.clear()
        simulate(model, tokens)
    assert tokens == [Request] * 4


# -- unit pins --------------------------------------------------------------------
def hold(env, resource, duration, log=None):
    req = resource.acquire()
    try:
        if req is not None:
            yield req
        if log is not None:
            log.append(env.now)
        yield env.timeout(duration)
    finally:
        resource.release(req)


class TestInlineHolds:
    def test_inline_hold_counts_as_a_holder(self, env):
        lock = Resource(env)
        assert lock.acquire() is None          # quiet, free: taken inline
        assert lock.count == 1
        assert env.elided == 1 and env.scheduled_events == 0
        lock.release(None)
        assert lock.count == 0

    def test_a_taken_slot_is_not_handed_out_again(self, env):
        lock = Resource(env)
        assert lock.acquire() is None
        second = lock.acquire()                # full: a queued Request
        assert second is not None and not second.triggered
        assert lock.queued == 1
        plain = lock.request()                 # the evented API agrees
        assert not plain.triggered and lock.queued == 2

    def test_capacity_two_takes_two_inline(self, env):
        pool = Resource(env, capacity=2)
        assert pool.acquire() is None and pool.acquire() is None
        assert pool.count == 2
        assert pool.acquire() is not None

    def test_releasing_an_inline_hold_grants_the_next_request(self, env):
        lock = Resource(env)
        granted = []
        env.process(hold(env, lock, 10, granted))      # inline at t=0
        env.process(hold(env, lock, 10, granted))      # queued behind it
        env.run()
        assert granted == [0, 10] and lock.count == 0

    def test_not_quiet_means_an_event(self, env):
        lock = Resource(env)
        env.timeout(0)                         # something else runs now
        assert not env.quiet
        req = lock.acquire()
        assert req == 0 and lock.count == 1 and env.elided == 0
        lock.release(req)
        assert lock.count == 0

    def test_a_token_is_zero_or_none(self, env):
        lock = Resource(env)
        assert lock.acquire() is None
        with pytest.raises(SimulationError, match="not a token"):
            lock.release(5)
        assert lock.count == 1
        lock.release(0)
        assert lock.count == 0

    def test_releasing_a_hold_never_taken_is_an_error(self, env):
        with pytest.raises(SimulationError, match="no inline hold"):
            Resource(env).release(None)

    def test_closed_holder_releases(self, env):
        lock = Resource(env)
        body = hold(env, lock, 100)
        next(body)                             # now parked on the timeout
        assert lock.count == 1
        body.close()                           # GeneratorExit at the yield
        assert lock.count == 0


class TestFreeButNotQuiet:
    """A free slot at an instant with other events runnable: the slot is
    taken inline, the caller waits its turn in a zero-length sleep."""

    @pytest.fixture
    def busy_env(self, env):
        env.timeout(0)                         # something else runs now
        assert not env.quiet
        return env

    def test_the_token_is_zero_and_no_request_is_made(self, busy_env,
                                                      monkeypatch):
        lock = Resource(busy_env)
        monkeypatch.setattr(Resource, "request", None)      # would raise
        before = busy_env.scheduled_events
        token = lock.acquire()
        assert token == 0 and token.__class__ is int and lock.count == 1
        # The grant's slot is taken when the holder yields the token.
        assert busy_env.scheduled_events == before
        assert busy_env.elided == 0

    def test_it_counts_as_a_holder(self, busy_env):
        pool = Resource(busy_env, capacity=2)
        first, second = pool.acquire(), pool.acquire()
        assert first == 0 and second == 0
        assert pool.count == 2
        third = pool.acquire()                 # full: a queued Request
        assert type(third) is Request and not third.triggered
        pool.release(first)
        assert pool.count == 2 and third.triggered and pool.queued == 0

    def test_closed_holder_releases(self, busy_env):
        lock = Resource(busy_env)
        body = hold(busy_env, lock, 100)
        assert next(body) == 0                 # parked on the token
        assert lock.count == 1
        body.close()                           # GeneratorExit at the yield
        assert lock.count == 0


class TestStoreNow:
    def test_put_now_and_get_now_move_items_without_events(self, env):
        store = Store(env, capacity=2)
        assert store.put_now("a") and store.put_now("b")
        assert not store.put_now("c")          # full: caller must yield put
        assert store.get_now() == "a" and store.get_now() == "b"
        assert store.get_now() is EMPTY
        assert env.scheduled_events == 0 and env.elided == 4

    def test_put_now_wakes_a_blocked_getter(self, env):
        store = Store(env, capacity=1)
        got = []

        def getter():
            got.append((yield store.get()))

        env.process(getter())
        env.run()
        assert got == [] and env.quiet
        assert store.put_now("x")              # handed straight to the getter
        assert store.level == 0
        env.run()
        assert got == ["x"]

    def test_get_now_admits_a_blocked_putter(self, env):
        store = Store(env, capacity=1)
        admitted = []

        def putter():
            yield store.put("first")
            yield store.put("second")          # blocks: the store is full
            admitted.append(env.now)

        env.process(putter())
        env.run()
        assert admitted == [] and store.level == 1
        assert store.get_now() == "first"
        assert store.level == 1                # "second" moved in at once
        env.run()
        assert admitted == [0] and store.get_now() == "second"

    def test_get_now_does_not_jump_a_queued_getter(self, env):
        store = Store(env, capacity=1)
        env.process((lambda: (yield store.get()))())
        env.run()
        assert store.get_now() is EMPTY

    def test_not_quiet_means_decline(self, env):
        store = Store(env, capacity=1)
        env.timeout(0)
        assert not store.put_now("x") and store.level == 0
        env.run()
        assert store.put_now("x")
        env.timeout(0)
        assert store.get_now() is EMPTY and store.level == 1


def test_fanout_dispatch_is_not_quiet(env):
    """While an event with several callbacks is dispatched the later
    callbacks are still runnable at this instant, so it is not quiet."""
    seen = []
    gate = env.event()
    gate.callbacks.append(lambda event: seen.append(env.quiet))
    gate.callbacks.append(lambda event: seen.append(env.quiet))
    gate.succeed()
    env.run()
    lone = env.event()
    lone.callbacks.append(lambda event: seen.append(env.quiet))
    lone.succeed()
    env.run()
    assert seen == [False, False, True]


# -- one quiet rule, three inline readers ---------------------------------------
#: ``acquire``, ``put_now`` and ``get_now`` test the clauses of
#: ``Environment.quiet`` inline.  Each probe calls one of them on a fresh
#: resource or store and returns whether it elided.
def probe_acquire(env):
    return Resource(env).acquire() is None


def probe_put_now(env):
    return Store(env, capacity=1).put_now("x")


def probe_get_now(env):
    store = Store(env, capacity=1)
    store.items.append("x")
    return store.get_now() is not EMPTY


def clauses(env):
    """The three reasons an instant is not quiet, each on its own."""
    heap = env._heap
    return (bool(env._imm), bool(heap) and heap[0][0] <= env.now,
            env._fanout)


def immediate_queue_not_empty(env, busy, calm):
    first, second = env.timeout(0), env.timeout(0)   # both on _imm
    first.callbacks.append(busy)                    # the second still queued
    second.callbacks.append(calm)
    return (True, False, False)


def heap_head_due_now(env, busy, calm):
    first, second = env.timeout(5), env.timeout(5)   # both on the heap
    first.callbacks.append(busy)                    # the second due at 5
    second.callbacks.append(calm)
    return (False, True, False)


def fanout_dispatch(env, busy, calm):
    gate = env.event()
    gate.callbacks.extend([busy, lambda event: None])   # a sibling to run
    gate.succeed()
    lone = env.timeout(1)
    lone.callbacks.append(calm)
    return (False, False, True)


@pytest.mark.parametrize("probe", [probe_acquire, probe_put_now,
                                   probe_get_now])
@pytest.mark.parametrize("clause", [immediate_queue_not_empty,
                                    heap_head_due_now, fanout_dispatch])
def test_each_primitive_elides_exactly_when_the_instant_is_quiet(
        env, probe, clause):
    seen = []

    def observe(event):
        quiet, state, before = env.quiet, clauses(env), env.elided
        elided = probe(env)
        assert env.elided - before == elided
        seen.append((state, quiet, elided))

    expected = clause(env, observe, observe)
    env.run()
    assert seen == [(expected, False, False),
                    ((False, False, False), True, True)]
