"""The one progress engine under every layer above FM.

FM 2.x moved receiver pacing into FM (``FM_extract(maxbytes)``) so that
MPI and sockets would stop each building their own; this module does the
same for what every upper layer does *while it waits*.  A layer keeps only
what is actually its own — a ``flush`` generator that sends the replies
its handler deferred (handlers never send), and the ``done`` predicates of
its blocking calls — and gets from :class:`Progress`:

* the bounded pass: ``FM_extract`` under the layer's budget, then
  ``flush``, guarded against re-entry;
* the FM ``stall_hook``: a sender out of credits keeps the receive side
  progressing, the interlayer-scheduling deadlock avoidance the paper
  attributes to FM 2.x's design;
* the blocking loop: passes until ``done()``, sleeping on
  :meth:`~repro.core.common.FmEndpoint.idle_wait` when a pass found
  nothing and failing loudly once ``FmParams.stall_limit_ns`` of sim time
  has gone by without a pass advancing.

The RPC and dataflow receive processes keep only what they do with one
inbox item and get their loop from :func:`pump`, which has no stall
limit: a server idles until the run ends, by design.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from repro.core.common import FmEndpoint


class Progress:
    """Extract → flush → wait → stall-check for one upper layer.

    ``budget`` is the layer's default ``FM_extract`` budget (``None``
    drains everything pending); ``flush`` is a generator function that
    sends the layer's handler-deferred replies and returns whether it sent
    any; ``error`` builds the exception a stalled :meth:`wait_until`
    raises from its ``what`` string.
    """

    def __init__(self, fm: FmEndpoint, budget: Optional[int],
                 flush: Callable[[], Generator],
                 error: Callable[[str], Exception]):
        self.fm = fm
        self.budget = budget
        self.flush = flush
        self.error = error
        self._running = False

    def progress(self, budget: Optional[int] = None) -> Generator:
        """One bounded extraction pass plus the layer's deferred replies.

        Returns True if anything happened (payload extracted or replies
        sent) so blocking loops know to sleep on an idle pass.  A pass
        entered while another is running — a second process on the node,
        or ``flush`` stalling on credits and coming back through
        :meth:`on_credit_stall` — does nothing and returns False.
        """
        if self._running:
            return False
        self._running = True
        try:
            extracted = yield from self.fm.extract(
                self.budget if budget is None else budget)
            flushed = yield from self.flush()
        finally:
            self._running = False
        return bool(extracted) or flushed

    def on_credit_stall(self) -> Generator:
        """Install as ``fm.stall_hook``: one pass per credit-stall spin."""
        yield from self.progress()

    def wait_until(self, done: Callable[[], object], what: str,
                   step: Optional[Callable[[], Generator]] = None) -> Generator:
        """Run passes until ``done()``; raise ``error(what)`` on a stall.

        ``step`` replaces the default pass (:meth:`progress`) for callers
        whose pass is more than one — a per-pass budget, a completion
        port.  The stall clock is sim time since the last pass that
        advanced, measured against ``env.now`` — not an accumulated
        backoff count — so time spent *inside* a pass (which a ``CpuSlow``
        episode can inflate arbitrarily) counts and detection cannot fire
        late; and it bounds time *stalled*, not the total wait.
        """
        fm = self.fm
        env = fm.env
        if step is None:
            step = self.progress
        t_wait = env.now
        while not done():
            advanced = yield from step()
            if advanced:
                t_wait = env.now
                continue
            if env.now - t_wait > fm.params.stall_limit_ns:
                raise self.error(what)
            yield from fm.idle_wait()


def pump(fm: FmEndpoint, inbox: Sequence, deliver: Optional[Callable] = None,
         live: Optional[Callable[[], object]] = None) -> Generator:
    """While ``live()`` (always, when None): ``deliver`` each ``inbox``
    item in arrival order, extract, and idle-wait when both are empty.

    A ``deliver`` that blocks (a ``put`` into a full bounded queue) stops
    extraction, so the receive region fills and FM's credits stall the
    senders.  ``inbox`` is ``()`` when the handlers finish the work.
    """
    while live is None or live():
        while inbox:
            yield from deliver(inbox.popleft())
        yield from fm.extract()
        if (not inbox and fm.nic.recv_region.level == 0
                and (live is None or live())):
            yield from fm.idle_wait()
