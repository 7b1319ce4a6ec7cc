"""The reference for quiet-instant elision tests.

There is no switch for the elision (``Environment.quiet``): the reference
run is the same code with the three primitives patched to decline, which
sends every caller down the evented path that was the only path before.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.simkernel.resources import Resource
from repro.simkernel.store import EMPTY, Store


@contextmanager
def elision_declined():
    """Within the block ``acquire`` / ``put_now`` / ``get_now`` never elide."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Resource, "acquire", lambda self: self.request())
        patch.setattr(Store, "put_now", lambda self, item: False)
        patch.setattr(Store, "get_now", lambda self: EMPTY)
        yield
