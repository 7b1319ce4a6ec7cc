"""Events: the unit of causality in the simulation.

An :class:`Event` has three states:

* *pending* — created, not yet scheduled to fire;
* *triggered* — given a value (or exception) and queued on the environment's
  event heap;
* *processed* — its callbacks have run.

Processes wait on events by ``yield``-ing them; the kernel resumes the
process when the event is processed.  A wait for the first of several
events is ``Environment.first_of`` (:meth:`Event.wake` as the one callback),
a wait for all of them ``Environment.all_of`` (a counter join); both hand
back one plain event.
"""

from __future__ import annotations

import sys
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.simkernel.errors import EventAlreadyTriggered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.env import Environment

#: Scheduling priorities for simultaneous events.  Lower sorts earlier.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Heap-entry key packing.  An event's tie-break pair (priority, seq) is
#: collapsed into the single integer ``(priority << SEQ_BITS) + seq`` so heap
#: entries are compact 3-tuples ``(time, key, event)`` and same-time ordering
#: compares one int instead of two.  ``seq`` is strictly increasing and
#: bounded by the event count of a run (~4.5e15 before the packing would
#: overflow into the priority bits — unreachable), so the packed order is
#: exactly the old (time, priority, seq) order, for negative priorities too.
SEQ_BITS = 52

# -- object pooling -----------------------------------------------------------
#
# The hot path allocates one Event subclass instance plus one callbacks list
# per simulated event.  Most of those objects are *anonymous*: a process does
# ``yield store.put(item)`` or waits on a wake-up and never touches the event
# again, so the instant its callbacks have run the kernel holds the only
# reference.  (A sleep, ``yield 5``, is no event at all.)  ``Environment``'s drain loop detects exactly that case with a
# refcount probe (two references: the loop local and getrefcount's argument)
# and recycles the event and its callbacks list into a per-class free list.
# Events the model still references (``t = env.timeout(...)``; a join's
# processes; process events) always fail the probe and are left alone, so
# pooling is invisible to user code.  Pools are keyed by *exact* class;
# subclasses that are not registered are never pooled.
_POOL_CAP = 512
_POOLING = sys.implementation.name == "cpython"  # refcount probe semantics
_EVENT_POOLS: dict[type, list] = {}


def _register_pool(cls: type) -> list:
    """Give ``cls`` a free list.

    The pool is exposed two ways: in ``_EVENT_POOLS`` (introspection and
    test resets) and — when pooling is active — as a ``cls._pool`` class
    attribute, which the drain loop reads off the event instance directly
    (one cached attribute load instead of a dict lookup per event).
    Unregistered classes inherit ``_pool = None`` from :class:`Event` and
    are never recycled.  Subclass-specific fields (e.g. ``StorePut.item``)
    are NOT cleared on recycle; pop sites overwrite them on reuse.
    """
    pool: list = []
    _EVENT_POOLS[cls] = pool
    if _POOLING:
        cls._pool = pool
    return pool


class Event:
    """A one-shot occurrence with a value and callbacks.

    Callbacks receive the event itself.  After :meth:`succeed` or
    :meth:`fail` the event is queued; callbacks run when the environment pops
    it from the heap.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    #: Sentinel meaning "no value yet".
    _PENDING = object()

    #: Free-list hook; overridden per class by ``_register_pool``.
    _pool: Optional[list] = None

    def __init_subclass__(cls, **kwargs):
        """Opt subclasses out of pooling unless they register their own pool.

        Pools hold instances of one exact class; without this, a subclass
        would inherit its parent's ``_pool`` and the drain loop would recycle
        e.g. a ``Request`` into the plain-:class:`Event` free list.
        """
        super().__init_subclass__(**kwargs)
        cls._pool = None

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        # Inlined env.schedule(self, delay=0, priority=priority): succeed is
        # the single hottest trigger path (every store put/get, every resource
        # grant) and delay is always 0 here — normal priority goes straight
        # to the environment's immediate FIFO, skipping the heap sift.
        env = self.env
        env._seq += 1
        if priority == PRIORITY_NORMAL:
            env._imm.append(((PRIORITY_NORMAL << SEQ_BITS) + env._seq, self))
        else:
            heappush(env._heap, (env.now, (priority << SEQ_BITS) + env._seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every process waiting on this event.
        If nothing ever waits, the environment re-raises it at ``run()`` time
        unless a wait (``wake``, ``all_of``) has defused it — silent failures
        hide bugs.
        """
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env.schedule(self, delay=0, priority=priority)
        return self

    def wake(self, source: Optional["Event"] = None) -> None:
        """Succeed unless already triggered (callback-compatible).

        Idempotent, so it can be the callback of several alternatives (a
        cap timer, a process, a NIC waiter flush) of which only the first
        counts.  A failed ``source`` is defused either way and fails a
        still-pending waiter, as ``Environment.all_of`` treats a constituent.
        """
        if source is not None and not source._ok:
            source._defused = True
            if not self._triggered:
                self.fail(source._value)
        elif not self._triggered:
            self.succeed()

    def __repr__(self) -> str:
        state = (
            "processed" if self._processed else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    For somebody who holds it — a wait's cap (``Environment.first_of``), a
    test.  A process that only lets time pass yields the duration itself, a
    sleep, which is no event (see ``Environment._sleep``).
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None,
                 priority: int = PRIORITY_NORMAL):
        if not isinstance(delay, int):
            raise TypeError(
                f"timeout delay must be an integer number of nanoseconds, got {delay!r}; "
                "use repro.simkernel.units helpers to convert"
            )
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        self._triggered = True
        env.schedule(self, delay=delay, priority=priority)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


#: Free lists for the anonymous-event fast paths (see ``_register_pool``).
#: ``Environment.event()`` / ``Environment.timeout()`` draw from these;
#: ``repro.simkernel.store`` registers its waiter classes on import.
_EVENT_FREE = _register_pool(Event)
_TIMEOUT_FREE = _register_pool(Timeout)
