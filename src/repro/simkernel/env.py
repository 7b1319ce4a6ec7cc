"""The simulation environment: clock, event heap, run loop.

Two execution paths share one event ordering:

* :meth:`Environment.step` is the *reference* path — fire exactly one event,
  with every guard in place.  Debugging helpers (:meth:`run_steps`) and
  direct test drivers use it.
* :meth:`Environment.run` uses an inlined *drain loop* (:meth:`_drain`) that
  pops and fires events without re-entering ``step()`` per event, keeps the
  ``trace`` hook test down to one load per event, and recycles anonymous
  events into per-class free lists (see ``repro.simkernel.events``).

Both paths pop the same heap in the same order, so simulated results are
bit-identical whichever drives the run — ``tests/test_determinism.py``
compares full (time, seq, priority) traces across the two.

A process that yields an ``int`` sleeps: the heap entry is the process
itself (:meth:`Environment._sleep`), keyed exactly as ``timeout(delay)``
would have been, and both paths recognise a popped live process as a sleep
that has ended.  ``timeout()`` is for an event somebody holds (a wait's cap,
a test); nothing waits on a sleep but the sleeper.
"""

from __future__ import annotations

import gc
import sys
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.simkernel.errors import SimulationError
from repro.simkernel.events import (
    _EVENT_FREE,
    _POOL_CAP,
    _TIMEOUT_FREE,
    Event,
    PRIORITY_NORMAL,
    SEQ_BITS,
    Timeout,
)
from repro.simkernel.process import Process, _SLEPT, _bad_yield

_PENDING = Event._PENDING
#: Heap key offset of a sleep: normal priority, as ``timeout()`` uses.
_NORMAL = PRIORITY_NORMAL << SEQ_BITS
#: Heap key of ``run(until=<int>)``'s stop marker: after every priority.
_STOP_KEY = float("inf")


class Environment:
    """Holds simulated time and executes events in deterministic order.

    Events scheduled for the same instant are ordered by ``priority`` then by
    a monotonically increasing sequence number, so any run is a pure function
    of the model — there is no dependence on hash ordering or wall-clock.

    ``now``, the simulated time in ns, is a plain slot only this class
    writes.  The slot ``_active_process`` (behind :attr:`active_process`)
    is also read directly by :class:`repro.obs.observer.Observer`, whose
    per-span path cannot afford a property call; nothing else outside the
    kernel may, and a rename here must follow there.
    """

    __slots__ = ("now", "_heap", "_imm", "_seq", "_active_process",
                 "_fanout", "elided", "trace", "last_key", "obs", "faults")

    def __init__(self, initial_time: int = 0):
        if not isinstance(initial_time, int) or initial_time < 0:
            raise ValueError(f"initial_time must be a non-negative int, got {initial_time!r}")
        self.now: int = initial_time
        self._heap: list[tuple[int, int, Event]] = []
        #: FIFO of ``(key, event)`` pairs scheduled for *now* at normal
        #: priority — the dominant schedule (every succeed).  Appending here
        #: skips the heap sift; keys stay monotone within the queue, so the
        #: pop order against same-time heap entries is a single head compare.
        self._imm: deque[tuple[int, Event]] = deque()
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        #: True while an event with several callbacks is being dispatched.
        self._fanout: bool = False
        #: Handshakes performed inline, without an event (see :attr:`quiet`).
        self.elided: int = 0
        #: Optional hook called as ``trace(time, event)`` before each event
        #: fires.  While it runs, :attr:`last_key` holds the fired event's
        #: packed (priority, seq) heap key.
        self.trace: Optional[Callable[[int, Event], None]] = None
        #: Packed heap key of the most recently traced event; decode with
        #: :meth:`decode_key`.  Only maintained while ``trace`` is attached
        #: (keeping the untraced drain loop free of the extra store).
        self.last_key: int = 0
        #: Optional :class:`repro.obs.observer.Observer`; instrumented layers
        #: emit spans/metrics into it.  ``None`` (the default) disables all
        #: observability at the cost of one ``is None`` test per site; the
        #: observer itself never consumes simulated time, so results are
        #: bit-identical with it on or off.
        self.obs: Optional[Any] = None
        #: Optional :class:`repro.faults.injector.FaultInjector`; hardware
        #: models consult it at their fault points.  ``None`` (the default)
        #: disables injection at the cost of one ``is None`` test per site;
        #: an injector with an *empty* plan is also bit-identical to none.
        self.faults: Optional[Any] = None

    # -- clock ---------------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def scheduled_events(self) -> int:
        """Total events ever scheduled (the self-perf events/sec numerator).

        Handshakes elided at quiet instants are counted in :attr:`elided`,
        not here; ``scheduled_events + elided`` is what this read before
        elision.  Those were the cheapest events, so events/s is not
        comparable across that change: compare events per op and seconds.
        """
        return self._seq

    @property
    def quiet(self) -> bool:
        """True when nothing else is runnable at the current instant.

        The immediate queue is empty, no heap entry is due now and no sibling
        callback of the event being dispatched has yet to run.  A fresh event
        succeeded here at normal priority with the caller as sole waiter
        would be the next one fired, so ``Resource.acquire`` and ``Store.
        put_now/get_now`` do the handshake inline: same actions, same order.
        Under ``run(until=t)`` the stop marker is a heap entry at ``t``, so
        that one instant is never quiet and its handshakes take an event.
        Those three test ``_imm``, ``_fanout``, the heap head and ``now``
        inline, not through the property (they run once per handshake); a
        change here must follow there.
        """
        heap = self._heap
        return (not self._imm and not self._fanout
                and (not heap or heap[0][0] > self.now))

    @staticmethod
    def decode_key(key: int) -> tuple[int, int]:
        """Unpack a heap key into ``(priority, seq)``."""
        return key >> SEQ_BITS, key & ((1 << SEQ_BITS) - 1)

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        pool = _EVENT_FREE
        if pool:
            event = pool.pop()
            event.env = self
            event._value = _PENDING
            event._ok = True
            event._triggered = False
            event._processed = False
            event._defused = False
            return event
        return Event(self)

    def timeout(self, delay: int, value: Any = None, priority: int = PRIORITY_NORMAL) -> Timeout:
        """An event that fires ``delay`` nanoseconds from now.

        For an event somebody holds — a wait's cap, a value to read back.  A
        process that only has to let time pass yields ``delay`` itself.
        """
        pool = _TIMEOUT_FREE
        if pool and type(delay) is int and delay >= 0:
            timeout = pool.pop()
            timeout.env = self
            timeout.delay = delay
            timeout._value = value
            timeout._ok = True
            timeout._triggered = True
            timeout._processed = False
            timeout._defused = False
            seq = self._seq + 1
            self._seq = seq
            if delay:
                heappush(self._heap,
                         (self.now + delay, (priority << SEQ_BITS) + seq, timeout))
            elif priority == PRIORITY_NORMAL:
                self._imm.append(((PRIORITY_NORMAL << SEQ_BITS) + seq, timeout))
            else:
                heappush(self._heap, (self.now, (priority << SEQ_BITS) + seq, timeout))
            return timeout
        # Cold path: fresh allocation, with full argument validation.
        return Timeout(self, delay, value, priority)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name)

    def all_of(self, events) -> Event:
        """An event that succeeds, with ``None``, once all ``events`` have.

        A counter join: each constituent gets one callback that counts it
        in, and the last one succeeds the join from that callback (at once
        if ``events`` is empty).  The first failed constituent fails the
        join; it, and any that fail after it, are defused.
        """
        events = list(events)
        if any(event.env is not self for event in events):
            raise ValueError("all events in a wait must share one environment")
        join = self.event()
        remaining = len(events)
        if not remaining:
            return join.succeed()

        def arrive(event: Event) -> None:
            nonlocal remaining
            if event._ok:
                remaining -= 1
                if not remaining and not join._triggered:
                    join.succeed()
            else:
                event._defused = True
                if not join._triggered:
                    join.fail(event._value)

        for event in events:
            if event._processed:
                arrive(event)
            else:
                event.callbacks.append(arrive)
        return join

    def first_of(self, event: Event, *alternatives: Event | int) -> Event:
        """``event``, armed to be woken by whichever alternative fires first.

        The capped wait as one event: each alternative — an event, or an
        int delay in ns — gets the one callback ``event.wake`` and the
        caller yields ``event`` itself: one hop from wake-up to waiter, no
        result dict (the value is ``None``; a failed alternative is thrown
        into the waiter).  ``event`` is spent by the wait, so an event the
        caller still has to read afterwards (a request's completion) goes
        on the right of a fresh ``env.event()``.
        """
        wake = event.wake
        for alt in alternatives:
            if alt.__class__ is int:
                alt = self.timeout(alt)
            if alt.env is not event.env:
                raise ValueError("all events in a wait must share one environment")
            if alt._processed:
                wake(alt)
            else:
                alt.callbacks.append(wake)
        return event

    # -- scheduling -------------------------------------------------------------
    def _sleep(self, process: Process, delay: int) -> None:
        """Queue ``process`` itself to resume ``delay`` ns from now.

        The sequence number and key are those ``timeout(delay)`` would have
        taken at this point, so the order of everything is unchanged.  The
        drain loop inlines this.
        """
        seq = self._seq + 1
        self._seq = seq
        key = _NORMAL + seq
        if delay:
            heappush(self._heap, (self.now + delay, key, process))
        else:
            self._imm.append((key, process))

    def schedule(self, event: Event, delay: int = 0, priority: int = PRIORITY_NORMAL) -> None:
        """Queue a triggered event to fire ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        if delay == 0 and priority == PRIORITY_NORMAL:
            self._imm.append(((PRIORITY_NORMAL << SEQ_BITS) + self._seq, event))
            return
        heappush(self._heap,
                 (self.now + delay, (priority << SEQ_BITS) + self._seq, event))

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if nothing is queued."""
        if self._imm:
            return self.now
        return self._heap[0][0] if self._heap else None

    def step(self) -> None:
        """Fire exactly one event (the earliest) — the reference path.

        The next event is the smaller of the heap head and the immediate
        queue head (immediate entries are all at the current time; a heap
        entry wins only if it is at the current time with a smaller key).
        This merge rule is shared verbatim with the drain loop, so both
        paths fire events in the same order.
        """
        imm = self._imm
        if imm:
            heap = self._heap
            if heap and heap[0][0] == self.now and heap[0][1] < imm[0][0]:
                when, key, event = heappop(heap)
            else:
                when = self.now
                key, event = imm.popleft()
        elif self._heap:
            when, key, event = heappop(self._heap)
        else:
            raise SimulationError("step() on an empty event heap")
        if when < self.now:  # pragma: no cover - guarded by schedule()
            raise SimulationError("event heap corrupted: time went backwards")
        self.now = when
        if self.trace is not None:
            self.last_key = key
            self.trace(when, event)
        if event.__class__ is Process and not event._triggered:
            event._resume(_SLEPT)              # a sleep ended
            return
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        self._fanout = len(callbacks) > 1
        for callback in callbacks:
            callback(event)
        self._fanout = False
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run_steps(self, n: int) -> int:
        """Fire at most ``n`` events via :meth:`step`; return how many fired.

        A debugging helper: lets a test or a REPL session single-step through
        an interleaving (``env.run_steps(1)``) or drive a whole run on the
        reference path to compare against the drain loop.
        """
        if n < 0:
            raise ValueError(f"cannot run a negative number of steps ({n})")
        fired = 0
        while fired < n and (self._imm or self._heap):
            self.step()
            fired += 1
        return fired

    # -- the drain loop ---------------------------------------------------------
    def _drain(self, target: Optional[Event]) -> None:
        """Fire events until the heap empties or ``target`` is processed.

        This is ``step()`` unrolled into ``run()``'s inner loop: no per-event
        function call, a single ``trace`` check per event (hoisted from the
        guards ``step()`` re-evaluates), and anonymous-event recycling.  Event
        order is identical to repeated ``step()`` calls by construction —
        both pop the same heap.

        ``target`` is detected by identity *after* it fires (events become
        processed only by being popped here, so ``event is target`` is exactly
        the old "peek at ``target._processed``" check, one compare cheaper).
        ``target=None`` runs to quiescence.
        """
        heap = self._heap
        imm = self._imm
        getrefcount = sys.getrefcount
        now = self.now
        while True:
            if imm:
                # Immediate entries are all at the current instant; a heap
                # entry fires first only if it is at this instant with a
                # smaller key (scheduled earlier, or at higher priority).
                if heap and heap[0][0] == now and heap[0][1] < imm[0][0]:
                    now, key, event = heappop(heap)
                else:
                    key, event = imm.popleft()
            elif heap:
                now, key, event = heappop(heap)
                self.now = now
            else:
                return
            trace = self.trace
            if trace is not None and key != _STOP_KEY:
                self.last_key = key
                trace(now, event)
            if event.__class__ is Process and not event._triggered:
                # A sleep ended: the entry is the sleeper itself, resumed
                # with None.  No event fired, so nothing to recycle.
                cb = event
                send = cb._send
                value = None
            else:
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                cb = callbacks[0] if len(callbacks) == 1 else None
                if cb.__class__ is Process:
                    # Dominant case: exactly one waiting process.
                    if event._ok:
                        send = cb._send
                    else:
                        event._defused = True
                        send = cb._throw
                    value = event._value
                elif cb is not None:
                    cb(event)
                    cb = None
                else:
                    self._fanout = True
                    for callback in callbacks:
                        callback(event)
                    self._fanout = False
            if cb is not None:
                # Drive the generator right here — a faithful inline of
                # Process._resume (and of _sleep), minus the call frames.
                self._active_process = cb
                try:
                    next_event = send(value)
                except StopIteration as exc:
                    self._active_process = None
                    cb.succeed(exc.value)
                except BaseException as exc:
                    self._active_process = None
                    cb.fail(exc)
                else:
                    self._active_process = None
                    if next_event.__class__ is int and next_event >= 0:
                        seq = self._seq + 1
                        self._seq = seq
                        key = _NORMAL + seq
                        if next_event:
                            heappush(heap, (now + next_event, key, cb))
                        else:
                            imm.append((key, cb))
                    else:
                        try:
                            next_event.callbacks.append(cb)
                        except AttributeError:
                            if isinstance(next_event, Event) and next_event._processed:
                                cb._resume(next_event)  # rare: already fired
                            else:
                                cb.fail(_bad_yield(cb, next_event))
                        else:
                            if next_event.env is not self:
                                next_event.callbacks.remove(cb)
                                cb.fail(SimulationError(
                                    f"process {cb.name!r} yielded an event "
                                    "from another environment"))
                if cb is event:
                    continue
            elif not event._ok and not event._defused:
                raise event._value
            if event is target:
                return
            # Recycle the event iff nothing outside this loop references it
            # (or its callbacks list): two refs = the local + getrefcount's
            # own argument.  See repro.simkernel.events for the invariants.
            pool = event._pool
            if (pool is not None
                    and len(pool) < _POOL_CAP
                    and getrefcount(event) == 2):
                # Only detach what must not leak; flag/value resets happen at
                # the pop sites (event()/timeout()/Store.put/Store.get), which
                # overwrite most fields anyway.
                event.env = None
                event.callbacks = []
                pool.append(event)

    def _drain_collector_paused(self, target: Optional[Event]) -> None:
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._drain(target)
        finally:
            if gc_was_enabled:
                gc.enable()

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run until the heap drains, time ``until`` passes, or event fires.

        * ``until=None`` — run to quiescence (no events left).
        * ``until=<int>`` — run until simulated time reaches that instant;
          ``now`` is set to exactly ``until`` even if the heap drains early.
        * ``until=<Event>`` — run until the event fires and return its value
          (raises ``SimulationError`` if the heap drains first).

        The cyclic garbage collector is paused for the duration of the drain
        (and restored to its prior state after): the hot loop churns heap-entry
        tuples fast enough to trigger a gen-0 collection every few hundred
        events, and the kernel's own objects are either pooled or freed by
        reference counting.  Cyclic garbage produced by the model (abandoned
        processes) is collected once the run returns.
        """
        if until is None:
            self._drain_collector_paused(None)
            return None

        if isinstance(until, Event):
            target = until
            if not target._processed:
                self._drain_collector_paused(target)
            if not target._processed:
                raise SimulationError(
                    "run(until=event): event heap drained before the event fired "
                    "(deadlock: some process is waiting on a condition that can "
                    "never become true)"
                )
            if not target._ok:
                target._defused = True
                raise target._value
            return target._value

        if isinstance(until, int):
            if until < self.now:
                raise ValueError(f"until ({until}) is in the past (now={self.now})")
            # Empty-heap (or already-idle-past-until) fast path: advance the
            # clock without touching any event machinery.
            if self._imm or (self._heap and self._heap[0][0] <= until):
                # The one drain loop stops at a marker that sorts after
                # everything due at ``until``, delay-0 events scheduled while
                # that instant is processed included.  It is the kernel's
                # own: no sequence number, never shown to ``trace``.
                marker = Event(self)
                stop = (until, _STOP_KEY, marker)
                heappush(self._heap, stop)
                try:
                    self._drain_collector_paused(marker)
                finally:
                    if not marker._processed:  # an exception left it unfired
                        self._heap.remove(stop)
                        heapify(self._heap)
            self.now = until
            return None

        raise TypeError(f"until must be None, an int time, or an Event; got {until!r}")

    def __repr__(self) -> str:
        pending = len(self._heap) + len(self._imm)
        return f"<Environment now={self.now} pending={pending}>"
