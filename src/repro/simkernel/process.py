"""Processes: generator coroutines driven by events.

A process wraps a Python generator.  Each ``yield`` hands the kernel either
an :class:`~repro.simkernel.events.Event` — the kernel resumes the generator
with the event's value once it fires (or throws the event's exception into
the generator) — or a non-negative ``int``: a sleep of that many ns, after
which the generator resumes with ``None``.  A sleep is not an event: the
process itself is the queue entry (see ``Environment._sleep``).  A process is
itself an event that fires when the generator returns, so processes can wait
on each other — this is how ``Cluster.run`` joins the programs it started.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator

from repro.simkernel.errors import SimulationError
from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.env import Environment


class Process(Event):
    """Execution of a generator within the simulation.

    The process event's value is the generator's return value.  Uncaught
    exceptions inside the generator fail the process event and propagate to
    any process waiting on it (or abort ``run()`` if nobody waits).
    """

    __slots__ = ("_generator", "name", "_send", "_throw")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"Process requires a generator, got {generator!r}; "
                "did you forget to call the generator function?"
            )
        super().__init__(env)
        self._generator = generator
        self.name = name or generator.__name__
        # One bound method each, created once: the kernel calls send/throw
        # per yield, and per-access bound-method allocation is measurable on
        # the hot path.  The process registers *itself* as the callback on
        # events it waits for (``__call__`` aliases ``_resume``), which lets
        # the drain loop recognise "one waiting process" with a single type
        # check and drive the generator without an extra call frame.
        self._send = generator.send
        self._throw = generator.throw
        init = env.event()
        init.callbacks.append(self)
        init.succeed(None)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    # -- kernel internals ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator after ``event`` fired (the kernel callback).

        Throws iff the event failed; the body is the old ``_step`` inlined —
        one frame per resume instead of two.  The process keeps no note of
        what it waits on: only the event (or, asleep, the heap entry) knows.
        """
        # Callbacks only ever run from the kernel's drain/step loops (never
        # nested inside another resume), so the previous active process is
        # always None — set/clear directly instead of saving and restoring.
        env = self.env
        env._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        next_event = self._send(event._value)
                    else:
                        event._defused = True
                        next_event = self._throw(event._value)
                except StopIteration as exc:
                    self.succeed(exc.value)
                    return
                except BaseException as exc:
                    self.fail(exc)
                    return

                if next_event.__class__ is int and next_event >= 0:
                    env._sleep(self, next_event)
                    return
                # Optimistically register on the yielded event; the rare cases
                # (already processed -> callbacks is None, or not an event at
                # all) surface as AttributeError, keeping the per-yield path
                # free of isinstance/processed checks.
                try:
                    next_event.callbacks.append(self)
                except AttributeError:
                    if isinstance(next_event, Event) and next_event._processed:
                        # Already fired: continue synchronously.
                        event = next_event
                        continue
                    self.fail(_bad_yield(self, next_event))
                    return
                if next_event.env is not env:
                    next_event.callbacks.remove(self)
                    self.fail(SimulationError(
                        f"process {self.name!r} yielded an event from another environment"
                    ))
                return
        finally:
            env._active_process = None

    #: Processes are their own resume callbacks (see ``__init__``).
    __call__ = _resume

    def __repr__(self) -> str:
        state = "dead" if self._triggered else "alive"
        return f"<Process {self.name!r} {state}>"


def _bad_yield(process: Process, value: Any) -> SimulationError:
    """The error a process fails with for yielding neither an event nor a
    sleep (``bool`` is not a sleep, nor is a negative or fractional ns)."""
    return SimulationError(
        f"process {process.name!r} yielded {value!r}: neither an event nor "
        "a non-negative int delay in ns")


#: What the reference path resumes a sleeper with: a spent event, value None.
_SLEPT = Event(None)
_SLEPT._value = None
_SLEPT._triggered = _SLEPT._processed = True
_SLEPT.callbacks = None
