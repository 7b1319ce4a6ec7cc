"""The reference for capped-wait tests.

There is no switch for ``Environment.first_of``: the reference run is the
same code with the helper patched back to the ``AnyOf`` it replaced — a
condition over the waiter and its alternatives, woken through a second
event — which was the only spelling before (the ``tests/_elision.py``
pattern).  The kernel no longer has conditions, so the ``AnyOf`` lives
here, cut to what a capped wait uses.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.simkernel import Environment, Event


class AnyOf(Event):
    """Fires when the first of ``events`` fires; a failed constituent fails
    it, and it and any that fail later are defused."""

    def __init__(self, env, events):
        super().__init__(env)
        events = tuple(events)
        for event in events:
            if event.env is not env:
                raise ValueError("all events in a condition must share one environment")
        for event in events:
            if event._processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event):
        if not event._ok:
            event._defused = True
        if self._triggered:
            return
        if event._ok:
            self.succeed()
        else:
            self.fail(event._value)


def _any_of(env, event, *alternatives):
    return AnyOf(env, [event, *(env.timeout(alt) if type(alt) is int else alt
                                for alt in alternatives)])


@contextmanager
def waits_as_conditions():
    """Within the block every ``first_of`` wait is an ``AnyOf``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Environment, "first_of", _any_of)
        yield
