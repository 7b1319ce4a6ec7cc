"""The reference for FM 2.x handler-coroutine tests.

There is no switch for how a handler runs: the reference run is the same
code with the mechanism it replaced patched back in — a kernel ``Process``
per message, and extract and handler meeting through two one-shot events per
slice (``data_ready``: handler parked, waiting for bytes; ``parked``: extract
parked, waiting for the handler to block or finish) — the ``tests/_elision.py``
pattern.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.core.fm2.stream import _PARK, RecvStream


def _rendezvous(stream, handler):
    """``handler`` in a process of its own, as the coroutine ``feed`` drives:
    each slice is one wait on "the handler parked, or its process ended"."""
    env = stream.fm.env
    state = SimpleNamespace(data_ready=None, parked=None)

    def in_own_process():
        obs = env.obs
        if obs is not None:
            obs.bind(stream.trace)
        try:
            event = handler.send(None)
            while True:
                if event is _PARK:
                    event = state.data_ready = env.event()
                    if state.parked is not None:
                        parked, state.parked = state.parked, None
                        parked.succeed()
                try:
                    value = yield event
                except BaseException as exc:
                    event = handler.throw(exc)
                else:
                    event = handler.send(value)
        except StopIteration:
            pass
        finally:
            if obs is not None:
                obs.bind(None)

    process = env.process(
        in_own_process(),
        name=f"fm2.handler[{stream.fm.node_id}]{(stream.src, stream.msg_id)}")
    while True:
        state.parked = env.event()
        if state.data_ready is not None:
            ready, state.data_ready = state.data_ready, None
            ready.succeed()
        yield env.first_of(state.parked, process)
        state.parked = None
        if process.triggered:
            return
        yield _PARK


@contextmanager
def handlers_as_processes():
    """Within the block every FM 2.x handler runs as its own ``Process``."""
    shipped_feed = RecvStream.feed

    def feed(self, packet):
        # ``FM2._process_packet`` sets ``handler`` just before the first feed.
        if packet.header.is_first:
            self.handler = _rendezvous(self, self.handler)
        return shipped_feed(self, packet)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RecvStream, "feed", feed)
        yield
