"""Cross-layer spans: timed intervals emitted at every layer crossing.

A :class:`Span` is the unit of attribution: one named interval of simulated
time on one component *track* (``"node0/fm"``, ``"fabric/s0"`` ...), tagged
with the layer that emitted it and free-form attributes.  Instrumented code
emits spans through the :class:`~repro.obs.observer.Observer` installed on
the environment (``env.obs``); when no observer is attached the emission
sites reduce to a single ``is None`` check, so observability costs nothing
when off and **never** costs simulated time when on.

Layer names used by the built-in instrumentation, top to bottom::

    app > mpi | sockets | shmem | ga > fm > nic > fabric (link/switch)

Spans optionally carry **causal identity**: a ``trace_id`` naming the
request (or other unit of work) the span belongs to, a per-observer unique
``span_id``, and a ``parent_id`` linking to the causally preceding span.
Instrumented code never fills these by hand — it binds a
:class:`TraceContext` on the observer (see
:mod:`repro.obs.observer`) and every span recorded under that binding
joins the request's tree, across FM sends, NIC packets, and remote
handlers on other nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

#: Canonical layer order, top of the stack first (used for report sorting).
LAYER_ORDER: tuple[str, ...] = (
    "app", "ga", "shmem", "mpi", "sockets", "fm", "nic", "fabric",
)


def layer_rank(layer: str) -> int:
    """Sort key placing known layers top-down and unknown layers last."""
    try:
        return LAYER_ORDER.index(layer)
    except ValueError:
        return len(LAYER_ORDER)


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The causal identity carried along one request's journey.

    ``trace_id`` names the whole request tree; ``span_id`` is the span the
    *next* recorded span should parent to (the root span at mint time, a
    hop span after :meth:`~repro.obs.observer.Observer.derive`).  Contexts
    are host-side bookkeeping only — they ride :class:`Packet
    <repro.hardware.packet.Packet>` objects without wire cost and never
    change simulated results.
    """

    trace_id: int
    span_id: int


@dataclass(slots=True)
class Span:
    """One timed interval on one component track.

    ``track`` is ``"<process>/<thread>"`` (e.g. ``"node0/nic.tx"``); the
    Perfetto exporter turns each distinct track into its own timeline row.
    ``attrs`` carries operation details (byte counts, peers, sequence
    numbers) and must hold only JSON-serialisable scalars.

    ``trace_id`` / ``span_id`` / ``parent_id`` are the causal-tracing
    fields: ``None`` / ``0`` / ``None`` for spans recorded outside any
    request context (the pre-tracing behaviour), and a per-request tree
    otherwise (see :class:`TraceContext`).
    """

    layer: str
    name: str
    t_start: int
    t_end: int
    track: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[int] = None
    span_id: int = 0
    parent_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise reversed_interval(self.layer, self.name, self.t_start,
                                    self.t_end)

    @property
    def duration_ns(self) -> int:
        """Length of the interval in nanoseconds."""
        return self.t_end - self.t_start

    def key(self) -> tuple[str, str]:
        """Aggregation key: (layer, name)."""
        return (self.layer, self.name)

    def __repr__(self) -> str:
        return (f"<Span {self.layer}/{self.name} [{self.t_start}, {self.t_end}) "
                f"track={self.track!r}>")


def reversed_interval(layer: str, name: str, t_start: int,
                      t_end: int) -> ValueError:
    """The error for a span that ends before it starts."""
    return ValueError(f"span {layer}/{name} ends before it starts "
                      f"({t_start} .. {t_end})")
