"""The Observer: the one object instrumented code talks to.

Attach an :class:`Observer` to an environment (``Observer().attach(env)``,
or the one-liner ``cluster.observe()``) and every instrumented layer
crossing — upper-layer API calls, FM primitives, NIC firmware iterations,
link serialisations, switch forwards — emits :class:`~repro.obs.span.Span`
records into it, and feeds the shared :class:`~repro.obs.metrics.Metrics`
registry.

Contract with the instrumentation sites (enforced by design, pinned by
``tests/test_determinism.py`` and perfbench's ``rpc_sharded_obs`` workload):

* **off by default** — ``env.obs`` is ``None`` until an observer attaches;
  a disabled site is one attribute read plus an ``is None`` test;
* **zero simulated time** — recording never creates events, acquires
  resources, or yields; simulated results are bit-identical with
  observability on, off, or absent;
* **deterministic** — span order is event order, so two identical runs
  produce byte-identical exports.

The observer is independent of the kernel's ``env.trace`` hook:
``env.trace`` sees every kernel event, ``env.obs`` sees semantic intervals.

**The span log.**  A span costs its fields, not an object: the observer
keeps one columnar log — six ints per span, packed into an ``array("q")``
(site, ``t_start``, ``t_end``, ``trace_id``, ``span_id``, ``parent_id``; 0
stands for ``None``, lossless because ids start at 1), the attribute
values in one flat list, and a table of the
:class:`~repro.hardware.packet.Site` objects the emitting components built
once, each entered on its first span.  :attr:`Observer.spans` builds the
:class:`~repro.obs.span.Span` objects from the rows on first read, so
every reader sees the same spans, ids and order a list of them would hold.

**Causal tracing.**  The observer also owns the trace-context machinery:
:meth:`Observer.mint_trace` starts a request tree, :meth:`Observer.bind`
attaches a :class:`~repro.obs.span.TraceContext` to the *currently
running* simulation process (a discrete-event simulator has no threads,
so the active process is the natural carrier) and :meth:`Observer.derive`
forks a child hop on a remote node.  An FM 2.x handler is a coroutine of
the process inside ``FM_extract``: that process carries the context of the
packet that started the handler for as long as it is resuming it.  Spans
recorded while a context is bound join the request's tree automatically;
span ids are allocated from one deterministic counter, so two identical
runs build identical trees.
"""

from __future__ import annotations

import struct
from array import array
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.hardware.packet import FORWARD_HOP, RX_HOP, TX_HOP, WIRE_HOP, Site
from repro.obs.metrics import Metrics
from repro.obs.span import Span, TraceContext, reversed_interval

#: Fields per span row of the log: site, t_start, t_end, trace_id,
#: span_id, parent_id.
_ROW = 6
#: A record appends its row to a list, packed into the array in one
#: ``struct`` call whenever a multiple of this many span ids has been
#: allocated (``array.extend`` parses each int on its own and would cost a
#: span ~1 µs more than the ``Span`` it replaces).  A row takes a fresh id
#: unless its id was allocated ahead (a request's root), so the list holds
#: about that many rows.
_PACK_EVERY = 1024
#: Each kind of hop stamp's span: layer, name, attr keys.
_HOP_SPANS = {WIRE_HOP: ("fabric", "wire", "src", "dest", "bytes"),
              FORWARD_HOP: ("fabric", "forward", "in_port", "out_port", "src", "dest"),
              TX_HOP: ("nic", "tx_firmware", "dest", "seq", "bytes"),
              RX_HOP: ("nic", "rx_dma", "src", "seq", "bytes")}

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.packet import Packet
    from repro.simkernel.env import Environment


class Observer:
    """Collects spans and metrics for one environment's run."""

    def __init__(self, metrics: Optional[Metrics] = None):
        self.env: Optional["Environment"] = None
        # The span log (see the module doc): packed rows, the rows not
        # packed yet, attr values, and each site met -> its row field.
        self._rows = array("q")
        self._tail: list[int] = []
        self._vals: list[Any] = []
        self._sites: dict[Site, int] = {}
        # The spans built so far from the log, and the first attr value of
        # the next row to build.
        self._spans: list[Span] = []
        self._vals_built = 0
        self.metrics = metrics if metrics is not None else Metrics()
        self._next_span_id = 0
        self._next_trace_id = 0
        # Process -> bound TraceContext (see the module doc).
        self._bound: dict[Any, TraceContext] = {}
        # From waypoint -> to waypoint -> that stage histogram's bound
        # ``record``, resolved on the pair's first packet (packet_done).
        self._stages: dict[str, dict[str, Callable[[int], None]]] = {}
        self._latency_record: Optional[Callable[[int], None]] = None
        # Hop kind -> track -> that hop site's row field (hops).
        self._hop_sites = {kind: {} for kind in _HOP_SPANS}
        # Link track -> its ``link.bytes`` meter's bound ``observe`` (hops).
        self._bytes_marks: dict[str, Callable[..., None]] = {}

    # -- lifecycle ------------------------------------------------------------
    def attach(self, env: "Environment") -> "Observer":
        """Install as ``env.obs`` (replacing any previous observer)."""
        self.env = env
        if self.metrics.env is None:
            self.metrics.env = env
        env.obs = self
        return self

    def detach(self, env: "Environment") -> None:
        """Remove from ``env`` (observability reverts to free)."""
        if env.obs is self:
            env.obs = None

    # -- causal trace contexts -------------------------------------------------
    def _alloc_span_id(self) -> int:
        span_id = self._next_span_id = self._next_span_id + 1
        if not span_id % _PACK_EVERY:
            self._pack()
        return span_id

    def mint_trace(self) -> TraceContext:
        """Start a new request tree: fresh trace id + pre-allocated root
        span id.  The minting site records the root span later (when the
        request resolves) by passing ``span_id=ctx.span_id`` to
        :meth:`record`, so children recorded in between still link to it."""
        self._next_trace_id += 1
        return TraceContext(self._next_trace_id, self._alloc_span_id())

    def derive(self, ctx: TraceContext) -> TraceContext:
        """Fork a child hop of ``ctx``: same trace, fresh span id.

        Used where the request changes hands (e.g. a server starting work
        on a client's request): spans recorded under the derived context
        parent to the hop span instead of the root."""
        return TraceContext(ctx.trace_id, self._alloc_span_id())

    def bind(self, ctx: Optional[TraceContext]) -> Optional[TraceContext]:
        """Bind ``ctx`` to the active process; returns the previous binding
        so callers can restore it (``None`` clears the binding).

        Typical use wraps a send path in ``prev = obs.bind(ctx)`` /
        ``obs.bind(prev)`` so every span the send emits joins the trace."""
        proc = self.env._active_process if self.env is not None else None
        if proc is None:
            return None
        prev = self._bound.pop(proc, None)
        if ctx is not None:
            self._bound[proc] = ctx
        return prev

    def current(self) -> Optional[TraceContext]:
        """The context bound to the currently running process, if any."""
        env = self.env
        return None if env is None else self._bound.get(env._active_process)

    # -- recording --------------------------------------------------------------
    def record(self, site: Site, t_start: int, *values: Any,
               t_end: Optional[int] = None,
               ctx: Optional[TraceContext] = None,
               span_id: Optional[int] = None) -> None:
        """Record a completed interval at ``site``, with one attr value per
        ``site.keys`` in that order (``None`` leaves that attr out of the
        span); ``t_end`` defaults to ``env.now``.

        Causal linkage: ``ctx`` defaults to the active process's bound
        context (:meth:`current`); when one applies, the span joins that
        trace with a freshly allocated ``span_id`` and ``parent_id =
        ctx.span_id``.  Pass ``span_id`` explicitly to record a span whose
        id was pre-allocated at mint/derive time (the root and hop spans),
        in which case the span parents to ``ctx`` only if the ids differ.
        The span is read back through :attr:`spans`.
        """
        # The per-crossing hot path, so one frame: id allocation and
        # :meth:`current` are written out, and the clock and the active
        # process are read from the slots ``Environment`` documents for it.
        env = self.env
        if t_end is None:
            if env is None:
                raise RuntimeError("record() before attach()")
            t_end = env._now
        if t_end < t_start:
            raise reversed_interval(site.layer, site.name, t_start, t_end)
        if ctx is None and env is not None and env._active_process in self._bound:
            ctx = self._bound[env._active_process]
        if span_id is None:
            span_id = self._next_span_id = self._next_span_id + 1
            if not span_id % _PACK_EVERY:
                self._pack()
        if ctx is None:
            trace_id = parent_id = 0
        else:
            trace_id = ctx.trace_id
            parent_id = ctx.span_id if ctx.span_id != span_id else 0
        try:
            row_site = self._sites[site]
        except KeyError:
            if len(values) != len(site.keys):
                raise TypeError(f"{site.name}: {site.keys} got {values}") from None
            row_site = self._sites[site] = len(self._sites)
        self._tail += (row_site, t_start, t_end, trace_id, span_id, parent_id)
        self._vals += values

    def hops(self, packet: "Packet") -> None:
        """Record the hop spans of a packet leaving the hardware (the
        receiving NIC, or a link that drops it), built from its hop stamps
        (:attr:`Packet.waypoints <repro.hardware.packet.Packet>`).  Not
        through :meth:`record`: fabric hops carry no trace and NIC hops the
        packet's own, never the calling process's; each hop is one row of
        the log, its site found by kind and track.  A wire hop marks
        ``link.bytes`` at its own end time."""
        header = packet.header
        nbytes = packet.wire_bytes
        ctx = packet.trace
        trace_id, parent_id = ((0, 0) if ctx is None
                              else (ctx.trace_id, ctx.span_id))
        hop_sites = self._hop_sites
        tail = self._tail
        vals = self._vals
        for waypoint in packet.waypoints:
            hop = waypoint[2:5]
            if not hop:
                continue                   # a (location, time) stamp
            kind, t_start, track = hop
            t_end = waypoint[1]
            if t_end < t_start:
                raise reversed_interval(*_HOP_SPANS[kind][:2], t_start, t_end)
            if kind == WIRE_HOP:
                vals += (header.src, header.dest, nbytes)
                marks = self._bytes_marks
                if track not in marks:
                    # A link's track is ``fabric/<link name>``.
                    marks[track] = self.metrics.meter(
                        "link.bytes", link=track.partition("/")[2]).observe
                marks[track](nbytes, t_end)
            elif kind == FORWARD_HOP:
                vals += (waypoint[5], waypoint[6], header.src, header.dest)
            else:                          # a NIC hop: its peer, seq, bytes
                vals += (header.dest if kind == TX_HOP else header.src,
                         header.seq, nbytes)
            try:
                row_site = hop_sites[kind][track]
            except KeyError:
                layer, name, *keys = _HOP_SPANS[kind]
                row_site = hop_sites[kind][track] = self._sites[
                    Site(layer, name, track, *keys)] = len(self._sites)
            span_id = self._next_span_id = self._next_span_id + 1
            if not span_id % _PACK_EVERY:
                self._pack()
            tail += ((row_site, t_start, t_end, trace_id, span_id, parent_id)
                     if kind >= TX_HOP else (row_site, t_start, t_end, 0, span_id, 0))

    def _pack(self) -> None:
        """Move the rows not packed yet into the array."""
        tail = self._tail
        self._rows.frombytes(struct.pack(f"{len(tail)}q", *tail))
        tail.clear()

    def packet_done(self, packet: "Packet", end_name: str, end_time: int) -> None:
        """Fold one delivered packet's waypoints into per-stage histograms.

        Called by the FM extract loops when a data packet has been fully
        processed; generalises ``bench/journey.py``'s single-packet
        attribution to every packet of any workload.  Each consecutive
        waypoint pair becomes a sample of the ``packet.stage`` histogram
        labelled with that stage, and the whole journey one sample of
        ``packet.latency_ns``.
        """
        waypoints = packet.waypoints
        if not waypoints:
            return
        stages = self._stages
        prev_name, t_first = waypoints[0][:2]
        prev_time = t_first
        for waypoint in (*waypoints[1:], (end_name, end_time)):
            name = waypoint[0]
            try:
                record = stages[prev_name][name]
            except KeyError:
                record = self.metrics.histogram(
                    "packet.stage", stage=f"{prev_name} -> {name}").record
                stages.setdefault(prev_name, {})[name] = record
            time = waypoint[1]
            record(time - prev_time)
            prev_name, prev_time = name, time
        if self._latency_record is None:
            self._latency_record = self.metrics.histogram(
                "packet.latency_ns").record
        self._latency_record(end_time - t_first)

    # -- queries -----------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Every recorded span, in recording (event) order.

        Built from the log on read, incrementally: rows recorded since the
        last read become :class:`Span` objects and join the same list."""
        if self._tail:
            self._pack()
        spans = self._spans
        rows = self._rows
        built = len(spans)
        if built * _ROW < len(rows):
            table = list(self._sites)
            vals = self._vals
            at = self._vals_built
            fields = iter(rows[built * _ROW:])
            for row_site, t_start, t_end, trace_id, span_id, parent_id in zip(
                    *[fields] * _ROW):             # one row per step
                site = table[row_site]
                end = at + len(site.keys)
                attrs = {key: value for key, value in zip(site.keys, vals[at:end])
                         if value is not None}
                spans.append(Span(site.layer, site.name, t_start, t_end, site.track,
                                  attrs, trace_id or None, span_id, parent_id or None))
                at = end
            self._vals_built = at
        return spans

    def spans_for(self, layer: Optional[str] = None,
                  name: Optional[str] = None,
                  track: Optional[str] = None) -> list[Span]:
        """Spans filtered by any combination of layer, name, and track."""
        return [s for s in self.spans
                if (layer is None or s.layer == layer)
                and (name is None or s.name == name)
                and (track is None or s.track == track)]

    def tracks(self) -> list[str]:
        """Sorted distinct component tracks that emitted at least one span."""
        return sorted({site.track for site in self._sites})

    def trace_ids(self) -> list[int]:
        """Sorted distinct trace ids that recorded at least one span."""
        return sorted({s.trace_id for s in self.spans
                       if s.trace_id is not None})

    def spans_for_trace(self, trace_id: int) -> list[Span]:
        """All spans of one request tree, in recording (event) order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def __len__(self) -> int:
        """Spans recorded, counted from the log (builds no :class:`Span`)."""
        return (len(self._rows) + len(self._tail)) // _ROW

    def __repr__(self) -> str:
        return f"<Observer spans={len(self)} tracks={len(self.tracks())}>"

