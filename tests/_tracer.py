"""The reference event recorder of the determinism and kernel tests.

Attach a :class:`Tracer` to an environment (it chains on the kernel's
``env.trace`` hook) and every processed event is recorded as ``(time,
kind, name)`` plus its ``(seq, priority)`` tie-break pair.  Nothing in the
simulator attaches one; the tests compare full histories across runs and
execution paths with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.simkernel.events import Event, Timeout
from repro.simkernel.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


@dataclass
class TraceRecord:
    time: int
    kind: str       # "sleep" | "timeout" | "process" | "event"
    name: str
    #: Scheduling tie-break pair of the fired event (kernel heap order);
    #: ``seq`` is the global schedule sequence number, ``priority`` the
    #: event's PRIORITY_* level.  Lets determinism tests compare full
    #: (time, seq, priority) histories, not just names.
    seq: int = 0
    priority: int = 0

    def __iter__(self):
        return iter((self.time, self.kind, self.name))


@dataclass
class Tracer:
    """Records processed events; install with :meth:`attach`."""

    records: list[TraceRecord] = field(default_factory=list)
    #: Optional predicate limiting what gets recorded.
    keep: Optional[Callable[[TraceRecord], bool]] = None
    _previous: Optional[Callable] = None
    _env: Optional["Environment"] = None

    def attach(self, env: "Environment") -> "Tracer":
        if env.trace is not None:
            self._previous = env.trace
        env.trace = self._hook
        self._env = env
        return self

    def detach(self, env: "Environment") -> None:
        """Remove this tracer from the environment's hook chain.

        Safe in any order: detaching a tracer that is *not* the head of the
        chain splices it out without clobbering tracers attached after it
        (the head keeps recording; only this tracer's link is removed).
        Raises ``ValueError`` if the tracer is not attached to ``env``.
        """
        if getattr(env.trace, "__self__", None) is self:
            env.trace = self._previous
            self._previous = None
            self._env = None
            return
        # Walk the chain of Tracer hooks looking for the one whose
        # ``_previous`` is us, then splice past it.  (Bound methods are
        # re-created on each attribute access, so compare hook owners, not
        # the method objects themselves.)
        hook = env.trace
        while hook is not None:
            owner = getattr(hook, "__self__", None)
            if not isinstance(owner, Tracer):
                break
            if getattr(owner._previous, "__self__", None) is self:
                owner._previous = self._previous
                self._previous = None
                self._env = None
                return
            hook = owner._previous
        raise ValueError(
            f"tracer with {len(self.records)} records is not attached to {env!r}"
        )

    def _hook(self, time: int, event: Event) -> None:
        if self._env is not None:
            priority, seq = self._env.decode_key(self._env.last_key)
        else:  # pragma: no cover - attach() always sets _env
            priority, seq = 0, 0
        if isinstance(event, Process):
            # A live process in the queue is a sleep ending; a finished one
            # is the process's own completion event.
            kind = "process" if event._triggered else "sleep"
            record = TraceRecord(time, kind, event.name, seq, priority)
        elif isinstance(event, Timeout):
            record = TraceRecord(time, "timeout", f"+{event.delay}", seq, priority)
        else:
            record = TraceRecord(time, "event", type(event).__name__, seq, priority)
        if self.keep is None or self.keep(record):
            self.records.append(record)
        if self._previous is not None:
            self._previous(time, event)

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def names(self, kind: Optional[str] = None) -> list[str]:
        return [r.name for r in self.records if kind is None or r.kind == kind]

    def between(self, start: int, end: int) -> list[TraceRecord]:
        return [r for r in self.records if start <= r.time < end]

    def timeline(self, limit: int = 50) -> str:
        """Human-readable trace dump (first ``limit`` records)."""
        lines = [f"{r.time:>12} ns  {r.kind:<8} {r.name}"
                 for r in self.records[:limit]]
        if len(self.records) > limit:
            lines.append(f"... {len(self.records) - limit} more")
        return "\n".join(lines)
