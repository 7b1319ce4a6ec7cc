"""Exclusive-use resources with FIFO queueing.

A :class:`Resource` models a device that at most ``capacity`` processes may
hold at once — the host CPU, a DMA engine, a bus grant.  A process takes a
slot with :meth:`Resource.acquire` and hands it back with
:meth:`Resource.release` in a ``finally``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.simkernel.errors import SimulationError
from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class Request(Event):
    """A pending or granted claim on a resource; :meth:`Resource.release`
    gives it back, or withdraws it while it is still queued.  ``resource``
    is ``None`` once it has been released or withdrawn."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource: Optional[Resource] = resource


class Resource:
    """A FIFO resource with integer capacity.

    Fairness: grants strictly follow request order, which keeps host-CPU
    contention between the send path and the extract path deterministic.
    The state is a count of held slots, however taken, and a FIFO of the
    requests waiting for one.
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.count = 0          # slots held, by a granted Request or inline
        self._queue: deque[Request] = deque()

    # -- API -------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    def request(self) -> Request:
        req = Request(self)
        if self.count < self.capacity:
            self.count += 1
            req.succeed()
        else:
            self._queue.append(req)
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
        if self.count < self.capacity:
            self.count += 1
            env = self.env
            heap = env._heap                   # Environment.quiet, inline
            if (not env._imm and not env._fanout
                    and (not heap or heap[0][0] > env.now)):
                env.elided += 1
                return None
            return 0
        return self.request()

    def release(self, request: Optional[Event | int]) -> None:
        """Release a held request, or withdraw a queued one (idempotent);
        ``None`` or ``0`` releases one inline hold taken by :meth:`acquire`."""
        if request is None or request.__class__ is int:
            if request:
                raise SimulationError(
                    f"{self!r}: {request!r} is not a token acquire() returns")
            if not self.count:
                raise SimulationError(f"{self!r}: no inline hold to release")
        elif request.resource is not self:
            return                             # released or withdrawn before
        else:
            request.resource = None
            if not request._triggered:         # still queued: withdraw it
                self._queue.remove(request)
                return
        if self._queue:   # only a full resource queues: the slot passes on
            self._queue.popleft().succeed()  # no value: that would be a cycle
        else:
            self.count -= 1

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} users={self.count}"
                f"/{self.capacity} queued={len(self._queue)}>")
