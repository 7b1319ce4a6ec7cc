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
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simkernel.errors import Interrupt, SimulationError, StopProcess
from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.env import Environment


class Process(Event):
    """Execution of a generator within the simulation.

    The process event's value is the generator's return value.  Uncaught
    exceptions inside the generator fail the process event and propagate to
    any process waiting on it (or abort ``run()`` if nobody waits).
    """

    __slots__ = ("_generator", "_target", "name", "_send", "_throw")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"Process requires a generator, got {generator!r}; "
                "did you forget to call the generator function?"
            )
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event | int] = None
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
        env._active_processes += 1

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (None if running
        or sleeping)."""
        target = self._target
        return target if isinstance(target, Event) else None

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt is delivered as an immediate event, so a process
        blocked on e.g. a long DMA completion wakes "now".  The event it was
        waiting on is *not* cancelled; the process may re-wait on it.  A
        sleep is: its queue entry stays in place but resumes nobody.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        fault = Event(self.env)
        fault._defused = True
        fault.callbacks.append(self._resume_interrupt)
        fault.fail(Interrupt(cause))

    # -- kernel internals ---------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self._triggered:
            return  # process finished between interrupt scheduling and delivery
        target = self._target
        if target.__class__ is int:
            self.env._cancel_sleep(target)
        elif target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator after ``event`` fired (the kernel callback).

        Throws iff the event failed; the body is the old ``_step`` inlined —
        one frame per resume instead of two.  ``_target`` is left stale while
        the generator runs (it is overwritten at the next yield or the process
        dies); only the interrupt path needs it cleared eagerly, which
        ``_resume_interrupt`` does itself.  While the process sleeps it holds
        the sleep's heap key, an ``int``.
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
                    env._active_processes -= 1
                    self.succeed(exc.value)
                    return
                except StopProcess as exc:
                    env._active_processes -= 1
                    self._generator.close()
                    self.succeed(exc.value)
                    return
                except BaseException as exc:
                    env._active_processes -= 1
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
                    env._active_processes -= 1
                    self.fail(_bad_yield(self, next_event))
                    return
                if next_event.env is not env:
                    next_event.callbacks.remove(self)
                    env._active_processes -= 1
                    self.fail(SimulationError(
                        f"process {self.name!r} yielded an event from another environment"
                    ))
                    return
                self._target = next_event
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
