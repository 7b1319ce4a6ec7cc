"""A pipeline as plain data: stages and the edge groups between them.

A :class:`StreamGraph` has two construction calls:
:meth:`~StreamGraph.add_stage` returns a stage id, and
:meth:`~StreamGraph.connect` feeds one stage into later ones::

    g = StreamGraph()
    sources = [g.add_stage(f"source{i}", "source") for i in range(2)]
    lanes = tuple(g.add_stage(f"rollup.{b}", "window", op="sum",
                              window_ns=200_000, branch=b) for b in range(4))
    sink = g.add_stage("sink", "sink")
    for src in sources:
        g.connect(src, lanes, "hash")
    for lane in lanes:
        g.connect(lane, (sink,))

An edge may only point forward to an existing stage, so the graph is a
DAG by birth (no cycle check needed) and stage creation order is a
topological order — the placement functions in
:mod:`repro.dataflow.engine` rely on both.

Fan-out semantics live in *edge groups*: one upstream stage feeding a
tuple of downstream stages through a selector — ``direct`` (single
target), ``hash`` (``crc32(key) % n``, content-partitioned so one key
always lands on one lane), or ``round_robin`` (load-balanced scatter).
A lane of a fan-out carries its index as ``branch``; a stage with several
upstreams (a gather) takes one edge from each.

Everything here is declarative: no node placement, no queues, no FM —
:mod:`repro.dataflow.engine` turns a graph plus a scenario into runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    """The pipeline DAG: stages in creation order, edge groups in
    creation order."""

    def __init__(self) -> None:
        self.stages: list[StageSpec] = []
        self.groups: list[EdgeGroupSpec] = []

    # -- construction ------------------------------------------------------
    def add_stage(self, name: str, kind: str, **params) -> int:
        """Add a stage (``params`` are :class:`StageSpec` fields); returns
        its id."""
        if any(s.name == name for s in self.stages):
            raise ValueError(f"duplicate stage name {name!r}")
        spec = StageSpec(len(self.stages), name, kind, **params)
        spec.validate()
        self.stages.append(spec)
        return spec.stage_id

    def connect(self, src: int, dsts: Sequence[int],
                selector: str = "direct") -> None:
        """Feed stage ``src`` into the stages ``dsts`` through
        ``selector``; each must be an existing stage created after
        ``src``."""
        dsts = tuple(dsts)
        for dst in dsts:
            if not 0 <= src < dst < len(self.stages):
                raise ValueError(
                    f"edge {src} -> {dst} does not point forward to an "
                    f"existing stage ({len(self.stages)} stages)")
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

