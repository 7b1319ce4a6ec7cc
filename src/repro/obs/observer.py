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
keeps one columnar log, each column as narrow as its range allows.  A row
is 30 B: the site index (``H``), ``t_start`` and ``t_end`` (``q``), and
``trace_id``, ``span_id`` and ``parent_id`` (``i``; 0 stands for ``None``,
lossless because ids start at 1).  The attribute values go where the
site's first span puts them: a site whose first values are all ints in
``[-2³¹, 2³¹)`` keeps its values in an ``array("i")``, any other site
(a ``str``, ``None`` or wider int among them) in a side list of objects.
A value that does not fit its column never wraps: an int attr that does
not fit ``i`` is kept by position in a side table with a 0 in its place,
and a site index past 65 535 or an id past 2³¹ − 1 raises when its row
is packed.  (What ``struct`` takes for an ``i``, a ``bool`` say, reads
back as a plain int: no site records one.)  The table of
:class:`~repro.hardware.packet.Site` objects holds each site the emitting
components built once, entered on its first span.
:attr:`Observer.spans` builds the :class:`~repro.obs.span.Span` objects
from the rows on first read, so every reader sees the same spans, ids
and order a list of them would hold.

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

#: The span row's columns, in order: site, t_start, t_end, trace_id,
#: span_id, parent_id (30 B a row).
_COLUMNS = "Hqqiii"
_ROW = len(_COLUMNS)
#: Bytes per item of each column type (``struct``'s standard sizes, which
#: are ``array``'s on the platforms CPython builds for).
_SIZE = {code: struct.calcsize(f"={code}") for code in _COLUMNS}
#: A record appends its row and its int values to lists, packed into the
#: columns whenever a multiple of ``_PACK_EVERY`` span ids has been
#: allocated: in whole chunks, each with one call of a ``struct`` format
#: fixed here (``array.extend`` parses each int on its own, ~5x slower; a
#: format built per call would fill ``struct``'s cache).  Rows lag ids by
#: the requests in flight (a request's root row takes an id allocated
#: ahead), so a row chunk is half the interval.
_PACK_EVERY = 1024
_CHUNK_ROWS = _PACK_EVERY // 2
_CHUNK = _ROW * _CHUNK_ROWS
_PACK_ROWS = struct.Struct("=" + "".join(f"{_CHUNK_ROWS}{code}" for code in _COLUMNS))
_CHUNK_INTS = 2 * _PACK_EVERY
_PACK_INTS = struct.Struct(f"={_CHUNK_INTS}i")
#: The range of a narrow int attr value.
_INT_MIN, _INT_MAX = -2 ** 31, 2 ** 31 - 1
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
        # The span log (see the module doc): the packed row columns and
        # the rows not packed yet; the packed int attr values, those not
        # packed yet and the ones that did not fit (position -> value);
        # the side list of the other sites' values; and each site met ->
        # (its row field, the list its values join).
        self._columns = [bytearray() for _ in _COLUMNS]
        self._tail: list[int] = []
        self._ints = bytearray()
        self._int_tail: list[Any] = []
        self._escapes: dict[int, Any] = {}
        self._wide: list[Any] = []
        self._sites: dict[Site, tuple[int, list[Any]]] = {}
        # The spans built so far from the log, and the next row's first
        # value in the ints and in the side list.
        self._spans: list[Span] = []
        self._ints_built = self._wide_built = 0
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
        # :meth:`current` are written out, and the active process is read
        # from the slot ``Environment`` documents for it (the clock, ``now``,
        # is a plain slot anyway).
        env = self.env
        if t_end is None:
            if env is None:
                raise RuntimeError("record() before attach()")
            t_end = env.now
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
            row_site, sink = self._sites[site]
        except KeyError:
            if len(values) != len(site.keys):
                raise TypeError(f"{site.name}: {site.keys} got {values}") from None
            sink = self._int_tail
            for value in values:           # once per site: where its values go
                if type(value) is not int or not _INT_MIN <= value <= _INT_MAX:
                    sink = self._wide
            row_site = len(self._sites)
            self._sites[site] = row_site, sink
        self._tail += (row_site, t_start, t_end, trace_id, span_id, parent_id)
        sink += values

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
        vals = self._int_tail
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
                row_site = hop_sites[kind][track] = len(self._sites)
                self._sites[Site(layer, name, track, *keys)] = row_site, vals
            span_id = self._next_span_id = self._next_span_id + 1
            if not span_id % _PACK_EVERY:
                self._pack()
            tail += ((row_site, t_start, t_end, trace_id, span_id, parent_id)
                     if kind >= TX_HOP else (row_site, t_start, t_end, 0, span_id, 0))

    def _pack(self) -> None:
        """Move every whole chunk of the rows and of the int values not
        packed yet into the columns, one ``struct`` call a chunk (a value
        out of its column's range raises ``struct.error``)."""
        tail = self._tail
        for _ in range(len(tail) // _CHUNK):
            rows = tail[:_CHUNK]
            packed = memoryview(_PACK_ROWS.pack(
                *rows[0::_ROW], *rows[1::_ROW], *rows[2::_ROW],
                *rows[3::_ROW], *rows[4::_ROW], *rows[5::_ROW]))
            at = 0
            for column, code in zip(self._columns, _COLUMNS):
                end = at + _SIZE[code] * _CHUNK_ROWS
                column += packed[at:end]
                at = end
            del tail[:_CHUNK]
        ints = self._int_tail
        for _ in range(len(ints) // _CHUNK_INTS):
            chunk = ints[:_CHUNK_INTS]
            try:
                self._ints += _PACK_INTS.pack(*chunk)
            except struct.error:           # a value that does not fit "i"
                self._pack_ints(chunk)
            del ints[:_CHUNK_INTS]

    def _pack_ints(self, values: list[Any]) -> None:
        """Pack int attr values one by one (a chunk ``struct`` refused, or
        what is left on read): each that does not fit ``i`` is kept by
        position in the escapes, a 0 in its place."""
        packed = array("i")
        base = len(self._ints) // _SIZE["i"]
        for value in values:
            try:
                packed.append(value)
            except (TypeError, OverflowError):
                self._escapes[base + len(packed)] = value
                packed.append(0)
        self._ints += packed

    def _flush(self) -> None:
        """Pack everything not packed yet: whole chunks, then what is left
        through ``array`` (out of range raises, never wraps)."""
        self._pack()
        tail = self._tail
        if tail:
            rest = [array(code, tail[field::_ROW])
                    for field, code in enumerate(_COLUMNS)]
            for column, part in zip(self._columns, rest):
                column += part
            tail.clear()
        if self._int_tail:
            self._pack_ints(self._int_tail)
            self._int_tail.clear()

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
        self._flush()
        spans = self._spans
        built = len(spans)
        if built < len(self):
            wide = self._wide
            table = [(site, sink is wide) for site, (_, sink) in self._sites.items()]
            base, wide_at = self._ints_built, self._wide_built
            ints = array("i", self._ints[base * _SIZE["i"]:])
            escapes = self._escapes
            at = 0
            rows = [array(code, column[built * _SIZE[code]:])
                    for code, column in zip(_COLUMNS, self._columns)]
            for row_site, t_start, t_end, trace_id, span_id, parent_id in zip(*rows):
                site, is_wide = table[row_site]
                n = len(site.keys)
                if is_wide:
                    values = wide[wide_at:wide_at + n]
                    wide_at += n
                else:
                    values = ints[at:at + n]
                    if escapes:
                        values = [escapes[i] if i in escapes else value
                                  for i, value in enumerate(values, base + at)]
                    at += n
                attrs = {key: value for key, value in zip(site.keys, values)
                         if value is not None}
                spans.append(Span(site.layer, site.name, t_start, t_end, site.track,
                                  attrs, trace_id or None, span_id, parent_id or None))
            self._ints_built, self._wide_built = base + at, wide_at
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
        return len(self._columns[0]) // _SIZE["H"] + len(self._tail) // _ROW

    def __repr__(self) -> str:
        return f"<Observer spans={len(self)} tracks={len(self.tracks())}>"

