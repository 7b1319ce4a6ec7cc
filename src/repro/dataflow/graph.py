"""The Stream API: build a dataflow DAG as pure data.

A :class:`StreamGraph` owns the stages and edge groups; :class:`Stream`
is a fluent handle over one stage::

    g = StreamGraph()
    s0 = g.source("source0")
    s1 = g.source("source1")
    lanes = g.merge([s0, s1]).partition(4, by="hash") \\
             .window(200_000, agg="sum", name="rollup")
    lanes.gather().sink("sink")

Construction is forward-only, so the graph is a DAG by birth (no cycle
check needed) and stage creation order is a topological order — the
placement functions in :mod:`repro.dataflow.engine` rely on both.

Fan-out semantics live in *edge groups*: one upstream stage feeding a
tuple of downstream stages through a selector — ``direct`` (single
target), ``hash`` (``crc32(key) % n``, content-partitioned so one key
always lands on one lane), or ``round_robin`` (load-balanced
``scatter``).  ``partition``/``scatter`` return a :class:`PendingFanout`;
the next operator call materialises the n parallel lane stages (one
:class:`StreamSet`), and :meth:`StreamSet.gather` merges the lanes back
into the stage that follows — the streamz scatter/gather shape with FM2
edges underneath.

Everything here is declarative: no node placement, no queues, no FM —
:mod:`repro.dataflow.engine` turns a graph plus a scenario into runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.dataflow.ops import FILTER_OPS, MAP_OPS, WindowState, lookup

STAGE_KINDS = ("source", "map", "filter", "window", "sink")
SELECTORS = ("direct", "hash", "round_robin")


@dataclass
class StageSpec:
    """One stage: a name, an operator kind, and its parameters."""

    stage_id: int
    name: str
    kind: str
    op: str = "identity"            # MAP_OPS / FILTER_OPS / AGG_OPS name
    work_ns: int = 0                # per-record service demand
    window_ns: int = 0              # window width (window stages)
    slide_ns: int = 0               # 0 = tumbling
    branch: int = 0                 # lane index within a fan-out, else 0

    def validate(self) -> None:
        if self.kind not in STAGE_KINDS:
            raise ValueError(f"stage kind must be one of {STAGE_KINDS}, "
                             f"got {self.kind!r}")
        if self.kind == "map":
            lookup(MAP_OPS, self.op, "map op")
        elif self.kind == "filter":
            lookup(FILTER_OPS, self.op, "filter predicate")
        elif self.kind == "window":
            # Constructor validates width/slide/agg consistency.
            WindowState(self.window_ns, self.slide_ns, self.op)
        if self.work_ns < 0:
            raise ValueError(f"work_ns must be non-negative, got {self.work_ns}")


@dataclass
class EdgeGroupSpec:
    """One upstream stage feeding ``dsts`` through ``selector``."""

    src: int
    dsts: tuple[int, ...]
    selector: str = "direct"

    def __post_init__(self) -> None:
        if self.selector not in SELECTORS:
            raise ValueError(f"selector must be one of {SELECTORS}, "
                             f"got {self.selector!r}")
        if not self.dsts:
            raise ValueError("edge group with no destinations")
        if self.selector == "direct" and len(self.dsts) != 1:
            raise ValueError("direct edge groups have exactly one destination")


class StreamGraph:
    """The mutable builder + finished pure-data DAG."""

    def __init__(self) -> None:
        self.stages: list[StageSpec] = []
        self.groups: list[EdgeGroupSpec] = []

    # -- construction ------------------------------------------------------
    def source(self, name: str) -> "Stream":
        """Add a source stage (the engine attaches the arrival process)."""
        return Stream(self, self._add_stage(name, "source").stage_id)

    def merge(self, streams: Sequence["Stream"]) -> "MergedStreams":
        """Treat several streams as one logical input for the next stage."""
        if not streams:
            raise ValueError("merge of no streams")
        for stream in streams:
            if stream.graph is not self:
                raise ValueError("cannot merge streams of different graphs")
        return MergedStreams(self, tuple(s.stage_id for s in streams))

    def _add_stage(self, name: str, kind: str, **params) -> StageSpec:
        if any(s.name == name for s in self.stages):
            raise ValueError(f"duplicate stage name {name!r}")
        spec = StageSpec(stage_id=len(self.stages), name=name, kind=kind,
                         **params)
        spec.validate()
        self.stages.append(spec)
        return spec

    def _connect(self, srcs: tuple[int, ...], dst: int,
                 selector: str = "direct") -> None:
        for src in srcs:
            self.groups.append(EdgeGroupSpec(src, (dst,), selector))

    def _fanout(self, src: int, dsts: tuple[int, ...], selector: str) -> None:
        self.groups.append(EdgeGroupSpec(src, dsts, selector))

    # -- introspection -----------------------------------------------------
    def upstreams(self, stage_id: int) -> list[int]:
        """Stage ids feeding ``stage_id``, in edge-group creation order."""
        return [g.src for g in self.groups if stage_id in g.dsts]

    def downstream_groups(self, stage_id: int) -> list[EdgeGroupSpec]:
        return [g for g in self.groups if g.src == stage_id]

    def sources(self) -> list[StageSpec]:
        return [s for s in self.stages if s.kind == "source"]

    def sinks(self) -> list[StageSpec]:
        return [s for s in self.stages if s.kind == "sink"]

    def validate(self) -> None:
        """Shape check: sources feed something, sinks terminate, interior
        stages are fully connected.  (Acyclicity holds by construction.)"""
        if not self.sources():
            raise ValueError("graph has no source stage")
        if not self.sinks():
            raise ValueError("graph has no sink stage")
        for stage in self.stages:
            ins = self.upstreams(stage.stage_id)
            outs = self.downstream_groups(stage.stage_id)
            if stage.kind == "source":
                if ins:
                    raise ValueError(f"source {stage.name!r} has inputs")
                if not outs:
                    raise ValueError(f"source {stage.name!r} feeds nothing")
            elif stage.kind == "sink":
                if outs:
                    raise ValueError(f"sink {stage.name!r} has outputs")
                if not ins:
                    raise ValueError(f"sink {stage.name!r} has no inputs")
            else:
                if not ins or not outs:
                    raise ValueError(
                        f"stage {stage.name!r} is not fully connected")


class _Operators:
    """The operator vocabulary, declared once.  A user says only how the
    next stage(s) are created: ``_then(name, kind, **params)``."""

    graph: StreamGraph

    def _operator(self, name: Optional[str], kind: str, **params):
        return self._then(name or f"{kind}{len(self.graph.stages)}", kind,
                          **params)

    def map(self, op: str = "identity", *, work_ns: int = 0,
            name: Optional[str] = None):
        """Apply a named :data:`~repro.dataflow.ops.MAP_OPS` transform."""
        return self._operator(name, "map", op=op, work_ns=work_ns)

    def filter(self, op: str, *, work_ns: int = 0,
               name: Optional[str] = None):
        """Keep records passing a named predicate; the rest are counted
        (``filtered``) and conserved in the report's accounting."""
        return self._operator(name, "filter", op=op, work_ns=work_ns)

    def window(self, window_ns: int, *, slide_ns: int = 0, agg: str = "sum",
               work_ns: int = 0, name: Optional[str] = None):
        """Tumbling (``slide_ns=0``) or sliding windowed aggregation."""
        return self._operator(name, "window", op=agg, work_ns=work_ns,
                              window_ns=window_ns, slide_ns=slide_ns)


@dataclass(frozen=True)
class MergedStreams(_Operators):
    """Several streams treated as one logical input (n-ary connect)."""

    graph: StreamGraph
    stage_ids: tuple[int, ...]

    def _then(self, name: str, kind: str, **params) -> "Stream":
        stage = self.graph._add_stage(name, kind, **params)
        self.graph._connect(self.stage_ids, stage.stage_id)
        return Stream(self.graph, stage.stage_id)

    def sink(self, name: str = "sink", *, work_ns: int = 0) -> "Stream":
        """Terminal stage: records die here (latency measured on arrival)."""
        return self._then(name, "sink", work_ns=work_ns)

    def partition(self, n: int, by: str = "hash") -> "PendingFanout":
        """Fan out over ``n`` parallel lanes — ``hash`` keeps each key on
        one lane (correct for keyed windows), ``round_robin`` spreads
        load.  The next operator call creates the lane stages."""
        if n < 1:
            raise ValueError(f"partition width must be positive, got {n}")
        if by not in ("hash", "round_robin"):
            raise ValueError(f"partition by must be hash/round_robin, got {by!r}")
        return PendingFanout(self.graph, self.stage_ids, n, by)

    def scatter(self, n: int) -> "PendingFanout":
        """streamz-style scatter: round-robin fan-out over ``n`` lanes."""
        return self.partition(n, by="round_robin")


class Stream(MergedStreams):
    """Fluent handle over one stage of a :class:`StreamGraph`: the
    one-upstream :class:`MergedStreams`."""

    def __init__(self, graph: StreamGraph, stage_id: int):
        super().__init__(graph, (stage_id,))

    @property
    def stage_id(self) -> int:
        return self.stage_ids[0]

    @property
    def spec(self) -> StageSpec:
        return self.graph.stages[self.stage_id]


@dataclass(frozen=True)
class PendingFanout(_Operators):
    """A declared fan-out whose lane stages don't exist yet; the next
    operator call materialises them (one stage per lane, each upstream
    connected to all lanes through the fan-out selector)."""

    graph: StreamGraph
    srcs: tuple[int, ...]
    n: int
    by: str

    def _then(self, base: str, kind: str, **params) -> "StreamSet":
        graph = self.graph
        lanes = []
        for branch in range(self.n):
            stage = graph._add_stage(f"{base}.{branch}", kind,
                                     branch=branch, **params)
            lanes.append(Stream(graph, stage.stage_id))
        dsts = tuple(lane.stage_id for lane in lanes)
        for src in self.srcs:
            graph._fanout(src, dsts, self.by)
        return StreamSet(graph, tuple(lanes))


@dataclass(frozen=True)
class StreamSet:
    """The n parallel lanes a fan-out produced."""

    graph: StreamGraph
    lanes: tuple[Stream, ...]

    def map(self, op: str = "identity", *, work_ns: int = 0,
            name: Optional[str] = None) -> "StreamSet":
        base = name or f"map{len(self.graph.stages)}"
        return StreamSet(self.graph, tuple(
            lane._then(f"{base}.{i}", "map", op=op, work_ns=work_ns,
                       branch=i)
            for i, lane in enumerate(self.lanes)))

    def gather(self) -> MergedStreams:
        """Merge the lanes back; the next operator/sink takes one edge
        from every lane (streamz gather)."""
        return MergedStreams(self.graph,
                             tuple(lane.stage_id for lane in self.lanes))

    def sink(self, name: str = "sink", *, work_ns: int = 0) -> Stream:
        return self.gather().sink(name, work_ns=work_ns)
