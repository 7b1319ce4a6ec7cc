"""Exclusive-use resources with FIFO queueing.

A :class:`Resource` models a device that at most ``capacity`` processes may
hold at once — the host CPU, a DMA engine, a bus grant.  A process takes a
slot with :meth:`Resource.acquire` and hands it back with
:meth:`Resource.release` in a ``finally``.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

from repro.simkernel.errors import SimulationError
from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class Request(Event):
    """A pending or granted claim on a resource; :meth:`Resource.release`
    gives it back, or withdraws it while it is still queued."""

    __slots__ = ("resource", "key")

    def __init__(self, resource: "Resource", key: int):
        super().__init__(resource.env)
        self.resource = resource
        self.key = key


class Resource:
    """A FIFO resource with integer capacity.

    Fairness: grants strictly follow request order, which keeps host-CPU
    contention between the send path and the extract path deterministic.
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._inline = 0  # slots held through acquire(), not a Request
        self._queue: list[tuple[int, Request]] = []  # heap keyed by request key
        self._seq = 0

    # -- API -------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users) + self._inline

    @property
    def queued(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    def request(self) -> Request:
        self._seq += 1
        req = Request(self, key=self._seq)
        if len(self._users) + self._inline < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            heapq.heappush(self._queue, (req.key, req))
        return req

    def acquire(self) -> Optional[Event | int]:
        """Claim a slot; ``None`` means it is already held, with no event.

        A free slot is taken inline.  At a quiet instant the grant would
        fire next with the caller as its only waiter, so there is no event
        at all; otherwise the caller still waits its turn: the token is
        ``0``, a zero-length sleep, which takes the queue position the
        grant's event had.  Only a busy slot is a :meth:`request`.  Any
        token goes back to :meth:`release`, in a ``finally`` (``if req is
        not None: yield req`` sits inside it).
        """
        if len(self._users) + self._inline < self.capacity:
            self._inline += 1
            env = self.env
            heap = env._heap                   # Environment.quiet, inline
            if (not env._imm and not env._fanout
                    and (not heap or heap[0][0] > env._now)):
                env.elided += 1
                return None
            return 0
        return self.request()

    def release(self, request: Optional[Event | int]) -> None:
        """Release a held request, or cancel a queued one (idempotent);
        ``None`` or ``0`` releases one inline hold taken by :meth:`acquire`."""
        if request is None or request.__class__ is int:
            if request:
                raise SimulationError(
                    f"{self!r}: {request!r} is not a token acquire() returns")
            if not self._inline:
                raise SimulationError(f"{self!r}: no inline hold to release")
            self._inline -= 1
            if self._queue:
                self._grant_next()
        elif request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            for i, (_key, queued_req) in enumerate(self._queue):
                if queued_req is request:
                    self._queue.pop(i)
                    heapq.heapify(self._queue)
                    break

    # -- internals ------------------------------------------------------------
    def _grant_next(self) -> None:
        while self._queue and len(self._users) + self._inline < self.capacity:
            _key, req = heapq.heappop(self._queue)
            self._users.add(req)
            req.succeed()  # no value: a request that held itself is a cycle

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} users={self.count}"
                f"/{self.capacity} queued={len(self._queue)}>")

