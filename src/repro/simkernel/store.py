"""Bounded FIFO stores — the building block for queues with back-pressure.

A :class:`Store` holds up to ``capacity`` items.  ``put`` blocks when full
and ``get`` blocks when empty.  Bounded stores are how the hardware layer
expresses back-pressure end to end: NIC SRAM packet slots, link slots and
host receive-region slots are all stores, so a slow consumer stalls the
producer chain exactly as Myrinet's link-level flow control does.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.simkernel.events import Event, PRIORITY_NORMAL, SEQ_BITS, _register_pool

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class StorePut(Event):
    """Pending put; fires (with the item) once the item is in the store."""

    __slots__ = ("item",)

    def __init__(self, env: "Environment", item: Any):
        super().__init__(env)
        self.item = item


class StoreGet(Event):
    """Pending get; fires with the retrieved item."""

    __slots__ = ()


#: Free lists for the waiter fast paths (drained by Environment._drain).
#: A recycled StorePut keeps its last ``item`` reference until reuse
#: overwrites it — at most _POOL_CAP items pinned, which keeps the drain
#: loop free of a per-event clear call.
_PUT_FREE = _register_pool(StorePut)
_GET_FREE = _register_pool(StoreGet)

#: Packed heap-key base for PRIORITY_NORMAL (see events.SEQ_BITS) — the
#: inlined succeed() in the put/get fast paths adds the sequence number.
_NORMAL_KEY = PRIORITY_NORMAL << SEQ_BITS

#: Returned by :meth:`Store.get_now` when the caller must ``yield get()``.
EMPTY = object()


class Store:
    """Deterministic bounded FIFO queue of items."""

    __slots__ = ("env", "capacity", "name", "items", "_puts", "_gets")

    def __init__(self, env: "Environment", capacity: float = float("inf"), name: str = ""):
        if capacity != float("inf"):
            if not isinstance(capacity, int) or capacity < 1:
                raise ValueError(f"capacity must be a positive int or inf, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._puts: deque[StorePut] = deque()
        self._gets: deque[StoreGet] = deque()

    # -- API ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> StorePut:
        env = self.env
        pool = _PUT_FREE
        if pool:
            event = pool.pop()
            event.env = env
            event.item = item
            event._ok = True
            event._processed = False
            event._defused = False
        else:
            event = StorePut(env, item)
        items = self.items
        if not self._puts and len(items) < self.capacity:
            # The put is admitted immediately.  If getters are queued the
            # store was empty, so exactly one get can now be satisfied
            # (with this very item) and the store is settled again: every
            # operation leaves no admissible put and no satisfiable get.
            # succeed() is inlined (the events are known-untriggered).
            items.append(item)
            event._value = item
            event._triggered = True
            seq = env._seq + 1
            env._seq = seq
            env._imm.append((_NORMAL_KEY + seq, event))
            gets = self._gets
            if gets:
                get = gets.popleft()
                get._value = items.popleft()
                get._triggered = True
                seq += 1
                env._seq = seq
                env._imm.append((_NORMAL_KEY + seq, get))
            return event
        # Blocked, and nothing to settle: a put is queued only against a full
        # store, which has no queued get (every operation leaves it settled).
        event._triggered = False
        self._puts.append(event)
        return event

    def get(self) -> StoreGet:
        env = self.env
        pool = _GET_FREE
        if pool:
            event = pool.pop()
            event.env = env
            event._ok = True
            event._processed = False
            event._defused = False
        else:
            event = StoreGet(env)
        items = self.items
        if not self._gets and items:
            # At call time any queued put is blocked (store full), so the
            # get fires first; the freed slot then admits exactly one
            # queued put, restoring fullness — settled again.
            # succeed() is inlined (the events are known-untriggered).
            event._value = items.popleft()
            event._triggered = True
            seq = env._seq + 1
            env._seq = seq
            env._imm.append((_NORMAL_KEY + seq, event))
            puts = self._puts
            if puts:
                put = puts.popleft()
                item = put.item
                items.append(item)
                put._value = item
                put._triggered = True
                seq += 1
                env._seq = seq
                env._imm.append((_NORMAL_KEY + seq, put))
            return event
        # Blocked, by the mirror invariant: a get is queued only against an
        # empty store, which has no queued put.
        event._triggered = False
        self._gets.append(event)
        return event

    def put_now(self, item: Any) -> bool:
        """:meth:`put` minus the caller's own event, if the item is admitted
        at once at a quiet instant (:attr:`Environment.quiet`); ``False``
        means nothing happened and the caller must ``yield put(item)``.
        A blocked getter is still woken through its event.
        """
        env = self.env
        items = self.items
        heap = env._heap                       # Environment.quiet, inline
        if (self._puts or len(items) >= self.capacity or env._imm
                or env._fanout or (heap and heap[0][0] <= env.now)):
            return False
        env.elided += 1
        gets = self._gets
        if gets:
            # The store is empty: the first getter takes this very item
            # (succeed() inlined, as in put()).
            get = gets.popleft()
            get._value = item
            get._triggered = True
            seq = env._seq + 1
            env._seq = seq
            env._imm.append((_NORMAL_KEY + seq, get))
        else:
            items.append(item)
        return True

    def get_now(self) -> Any:
        """:meth:`get` minus the caller's own event, if an item is ready at
        a quiet instant; else :data:`EMPTY` and the caller must ``yield
        get()``.  A blocked putter is still admitted through its event.
        """
        env = self.env
        items = self.items
        heap = env._heap                       # Environment.quiet, inline
        if (self._gets or not items or env._imm or env._fanout
                or (heap and heap[0][0] <= env.now)):
            return EMPTY
        env.elided += 1
        item = items.popleft()
        if self._puts:
            put = self._puts.popleft()
            items.append(put.item)
            put.succeed(put.item)
        return item

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop an item if available, else None.

        Only valid when no getters are queued (otherwise it would jump the
        FIFO order); the FM extract loop uses it to poll without blocking.
        As in :meth:`get`, the freed slot admits at most one queued put.
        """
        if self._gets:
            raise RuntimeError("try_get while blocking getters are queued breaks FIFO order")
        items = self.items
        if not items:
            return None
        item = items.popleft()
        puts = self._puts
        if puts:
            put = puts.popleft()
            items.append(put.item)
            put.succeed(put.item)
        return item

    def __repr__(self) -> str:
        cap = "inf" if self.capacity == float("inf") else self.capacity
        return (f"<Store {self.name!r} level={len(self.items)}/{cap} "
                f"puts={len(self._puts)} gets={len(self._gets)}>")

