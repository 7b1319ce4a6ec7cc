"""The fault injector: interprets a :class:`FaultPlan` during a run.

Attachment mirrors the observability hook: ``Environment.faults`` is
``None`` by default and every hardware hook guards with a single
``is None`` test, so a run without an injector pays one attribute load
per hook site and **zero simulated time**.  ``Cluster.inject_faults``
is the one-call setup.

Determinism contract (pinned by ``tests/test_determinism.py``):

* every random draw comes from a per-component stream derived from
  ``(plan.seed, component name)`` — never from wall clock or a shared
  cursor — so identical plans yield identical fault traces, and an
  episode on one component never perturbs another's draws;
* an injector whose plan has no episode matching a component makes no
  draws and schedules no events there: an *empty* plan is bit-identical
  to no injector at all;
* every injected fault is recorded in :attr:`FaultInjector.events`
  (the corruption/drop/stall trace) and counted in
  :attr:`FaultInjector.counters`; with an observer attached each fault
  also emits a ``fault`` span, so episodes are visible in trace exports.
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.faults.plan import FaultPlan
from repro.hardware.packet import Site

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np
    from repro.hardware.packet import Packet
    from repro.simkernel.env import Environment

#: Verdicts returned by :meth:`FaultInjector.link_fate`.
OK, CORRUPT, DROP = "ok", "corrupt", "drop"


def _trailing_int(name: str) -> Optional[int]:
    """The trailing integer of a component name (``cpu3`` -> 3), if any."""
    digits = ""
    for ch in reversed(name):
        if ch.isdigit():
            digits = ch + digits
        else:
            break
    return int(digits) if digits else None


class FaultInjector:
    """Evaluates a plan's episodes against components as the run unfolds."""

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        self.env: Optional["Environment"] = None
        #: The fault trace: ``(time_ns, kind, component, detail)`` tuples in
        #: event order.  Two runs with the same plan produce identical lists.
        self.events: list[tuple] = []
        #: Totals (``link.corrupt``, ``link.drop``, ``nic.stall_ns``,
        #: ``cpu.slow_ns``, ...); an observer's registry reports them under
        #: ``faults`` (:meth:`~repro.obs.metrics.Metrics.as_dict`).
        self.counters: Counter = Counter()
        self._rngs: dict[str, np.random.Generator] = {}
        # Per-component episode caches (component name -> matching episodes).
        self._link_cache: dict[str, tuple] = {}
        self._nic_cache: dict[tuple, tuple] = {}
        self._cpu_cache: dict[str, tuple] = {}
        self._sites: dict[tuple[str, str], Site] = {}   # (kind, component)

    # -- lifecycle ------------------------------------------------------------
    def attach(self, env: "Environment") -> "FaultInjector":
        """Install as ``env.faults`` (replacing any previous injector)."""
        self.env = env
        env.faults = self
        return self

    def detach(self, env: "Environment") -> None:
        if env.faults is self:
            env.faults = None

    # -- streams -----------------------------------------------------------------
    def rng(self, stream: str) -> np.random.Generator:
        """The deterministic RNG stream for one component."""
        gen = self._rngs.get(stream)
        if gen is None:
            import numpy as np
            gen = self._rngs[stream] = np.random.default_rng(
                (self.plan.seed, zlib.crc32(stream.encode())))
        return gen

    # -- hooks (called from the hardware models) ---------------------------------
    def link_fate(self, link_name: str, packet: "Packet") -> str:
        """Decide one serialised packet's fate on ``link_name`` right now."""
        episodes = self._link_cache.get(link_name)
        if episodes is None:
            episodes = self._link_cache[link_name] = tuple(
                e for e in self.plan.link_faults if e.matches(link_name))
        if not episodes:
            return OK
        now = self.env.now
        fate = OK
        for episode in episodes:
            if not episode.active(now):
                continue
            rng = self.rng(f"link:{link_name}")
            if episode.drop_rate and rng.random() < episode.drop_rate:
                fate = DROP
                break
            if episode.ber and fate is OK:
                bits = packet.wire_bytes * 8
                p_error = 1.0 - (1.0 - episode.ber) ** bits
                if rng.random() < p_error:
                    fate = CORRUPT
        if fate is not OK:
            header = packet.header
            self._record(fate, link_name,
                         (header.src, header.dest, header.msg_id, header.seq))
            self.counters[f"link.{fate}"] += 1
        return fate

    def nic_stall_ns(self, node_id: int, nic_name: str, side: str) -> int:
        """Extra firmware nanoseconds for one packet on this NIC side."""
        key = (node_id, side)
        episodes = self._nic_cache.get(key)
        if episodes is None:
            episodes = self._nic_cache[key] = tuple(
                e for e in self.plan.nic_stalls if e.matches(node_id, side))
        if not episodes:
            return 0
        now = self.env.now
        extra = 0
        for episode in episodes:
            if episode.active(now):
                extra += episode.extra_ns
        if extra:
            self._record("stall", nic_name, (side, extra))
            self.counters["nic.stall_ns"] += extra
        return extra

    def cpu_cost(self, cpu_name: str, cost_ns: int) -> int:
        """The charged cost after any active slowdown/jitter episodes."""
        episodes = self._cpu_cache.get(cpu_name)
        if episodes is None:
            node_id = _trailing_int(cpu_name)
            episodes = self._cpu_cache[cpu_name] = tuple(
                e for e in self.plan.cpu_slows
                if e.node is None or (node_id is not None and e.matches(node_id)))
        if not episodes:
            return cost_ns
        now = self.env.now
        scaled = cost_ns
        jitter = 0
        active = False
        for episode in episodes:
            if not episode.active(now):
                continue
            active = True
            if episode.factor != 1.0:
                scaled = int(round(scaled * episode.factor))
            if episode.jitter_ns:
                jitter += int(self.rng(f"cpu:{cpu_name}").integers(
                    0, episode.jitter_ns + 1))
        if not active:
            return cost_ns
        extra = scaled + jitter - cost_ns
        if extra:
            # Per-call events would swamp the trace; totals only.
            self.counters["cpu.slow_ns"] += extra
        return scaled + jitter

    # -- recording --------------------------------------------------------------
    def _record(self, kind: str, component: str, detail: tuple) -> None:
        now = self.env.now
        self.events.append((now, kind, component, detail))
        obs = self.env.obs
        if obs is not None:
            site = self._sites.setdefault((kind, component), Site(
                "fault", kind, "faults/" + component, "detail"))
            obs.record(site, now, detail)

    def __repr__(self) -> str:
        return (f"<FaultInjector episodes={len(self.plan)} "
                f"events={len(self.events)}>")
