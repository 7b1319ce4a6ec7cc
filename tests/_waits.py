"""The reference for capped-wait tests.

There is no switch for ``Environment.first_of``: the reference run is the
same code with the helper patched back to the ``AnyOf`` it replaced — a
``Condition`` over the waiter and its alternatives, woken through a second
event — which was the only spelling before (the ``tests/_elision.py``
pattern).
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.simkernel import AnyOf, Environment


def _any_of(env, event, *alternatives):
    return AnyOf(env, [event, *(env.timeout(alt) if type(alt) is int else alt
                                for alt in alternatives)])


@contextmanager
def waits_as_conditions():
    """Within the block every ``first_of`` wait is an ``AnyOf``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Environment, "first_of", _any_of)
        yield
