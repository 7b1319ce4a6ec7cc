"""Pipeline assembly: scenario -> graph -> placement -> runtimes -> run.

:class:`PipelineScenario` is the ``pipeline`` workload kind: the fields a
pipeline run reads and the entry points the scenario runner calls.

Two placement policies, both pure functions of ``(graph, n_nodes)`` so
reruns and tests agree with no coordination:

* ``spread`` — stage *i* on node *i* (stage creation order is
  topological).  Every edge crosses the fabric: maximum parallelism,
  maximum FM traffic — the configuration the placement sweep reads as
  "communication-bound or not".
* ``colocate`` — sources on nodes ``0..S-1``; every other stage lands on
  the node of one of its upstreams (lane ``branch`` picks upstream
  ``branch % len(upstreams)``, which deals fan-out lanes round-robin
  over the source nodes).  Same-node edges skip FM entirely (a bounded
  local handoff), so the sweep's co-located column isolates the wire
  cost of spreading.

The pipeline *shapes* the workload layer knows how to build:

* ``rollup`` — N sources -> hash-partitioned lanes of tumbling/sliding
  windowed aggregation -> gathered sink (the keyed metrics-rollup
  pattern; hash partitioning makes per-key state lane-local, so lanes
  never coordinate).
* ``scatter_gather`` — N sources -> round-robin scatter over worker
  lanes applying a map op with per-record service demand -> gathered
  sink (the load-balancing pattern; any lane can take any record).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dataflow.graph import StreamGraph
from repro.dataflow.records import MIN_RECORD_BYTES
from repro.dataflow.runtime import (
    DataflowEndpoint,
    EdgeRuntime,
    GroupRuntime,
    NodeRuntime,
    OperatorRuntime,
    SinkRuntime,
    SourceRuntime,
    StageRuntime,
)
from repro.dataflow.stats import PipelineStats
from repro.scenario import ArrivalFields

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster

PIPELINES = ("rollup", "scatter_gather")
PLACEMENTS = ("spread", "colocate")


def build_pipeline_graph(scenario: "PipelineScenario") -> StreamGraph:
    """The named pipeline shape for ``scenario.pipeline``: the sources fan
    out over ``branches`` lanes, and every lane feeds the one sink."""
    s = scenario
    graph = StreamGraph()
    sources = [graph.add_stage(f"source{i}", "source")
               for i in range(s.n_sources)]
    if s.pipeline == "rollup":
        base, selector, lane = "rollup", s.partition_by, dict(
            kind="window", op="sum", window_ns=s.window_ns,
            slide_ns=s.window_slide_ns)
    else:  # scatter_gather
        base, selector, lane = "work", "round_robin", dict(
            kind="map", op="square_mod")
    lanes = tuple(graph.add_stage(f"{base}.{b}", branch=b,
                                  work_ns=s.work_ns, **lane)
                  for b in range(s.branches))
    for src in sources:
        graph.connect(src, lanes, selector)
    sink = graph.add_stage("sink", "sink", work_ns=s.sink_work_ns)
    for lane_id in lanes:
        graph.connect(lane_id, (sink,))
    return graph


def required_nodes(n_sources: int, branches: int, placement: str) -> int:
    """Smallest cluster the placement admits (pure arithmetic, shared by
    Scenario validation and tests)."""
    if placement == "spread":
        return n_sources + branches + 1
    # colocate: only sources claim nodes; Cluster itself wants >= 2.
    return max(n_sources, 2)


def place_stages(graph: StreamGraph, placement: str,
                 n_nodes: int) -> dict[int, int]:
    """stage_id -> node_id (see module doc for the two policies)."""
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, "
                         f"got {placement!r}")
    if placement == "spread":
        if n_nodes < len(graph.stages):
            raise ValueError(
                f"spread placement needs one node per stage: "
                f"{len(graph.stages)} stages on {n_nodes} nodes")
        return {stage.stage_id: stage.stage_id for stage in graph.stages}
    mapping: dict[int, int] = {}
    next_source_node = 0
    for stage in graph.stages:  # creation order is topological
        if stage.kind == "source":
            if next_source_node >= n_nodes:
                raise ValueError(
                    f"colocate placement needs one node per source: "
                    f"{len(graph.sources())} sources on {n_nodes} nodes")
            mapping[stage.stage_id] = next_source_node
            next_source_node += 1
            continue
        ups = graph.upstreams(stage.stage_id)
        anchor = ups[stage.branch % len(ups)]
        mapping[stage.stage_id] = mapping[anchor]
    return mapping


class PipelineRun:
    """The wired pipeline: node runtimes, stage runtimes, edge rows."""

    def __init__(self, cluster: "Cluster", stats: PipelineStats):
        self.cluster = cluster
        self.stats = stats
        self.nodes: list[NodeRuntime] = []
        self.stages: list[StageRuntime] = []
        self.edges: list[EdgeRuntime] = []

    def programs(self) -> list:
        """One program per node for :meth:`Cluster.run`: wait for the
        node's local stages to finish (``None`` on stage-less nodes)."""
        env = self.cluster.env
        programs: list = []
        for node_rt in self.nodes:
            events = node_rt.done_events()
            if not events:
                programs.append(None)
                continue
            programs.append(
                lambda node, events=events: _wait_all(env, events))
        return programs

    def edge_report(self) -> list[dict]:
        rows = [edge.as_dict() for edge in self.edges]
        for edge in self.edges:
            if edge.sent != edge.received:
                raise AssertionError(
                    f"edge {edge.edge_id} lost records in flight: "
                    f"sent {edge.sent}, received {edge.received}")
        return rows


def _wait_all(env, events) -> object:
    yield env.all_of(events)


def build_pipeline(cluster: "Cluster", graph: StreamGraph,
                   scenario: "PipelineScenario",
                   stats: PipelineStats) -> PipelineRun:
    """Validate ``graph`` and wire it onto a cluster (no processes
    started)."""
    graph.validate()
    placement = place_stages(graph, scenario.stage_placement,
                             cluster.n_nodes)
    run = PipelineRun(cluster, stats)
    # Endpoints on every node in node order: the dataflow handler gets
    # the same id everywhere (SPMD registration, as the RPC layer does).
    endpoints = [DataflowEndpoint(node) for node in cluster.nodes]
    run.nodes = [NodeRuntime(node, endpoints[node.node_id], stats)
                 for node in cluster.nodes]
    # Stage runtimes, in stage order.
    for spec in graph.stages:
        node = cluster.nodes[placement[spec.stage_id]]
        stage_stats = stats.add_stage(spec.name, spec.kind, node.node_id)
        common = dict(spec=spec, node=node,
                      endpoint=endpoints[node.node_id], stats=stats,
                      stage_stats=stage_stats,
                      queue_capacity=scenario.queue_capacity,
                      record_bytes=scenario.req_bytes)
        if spec.kind == "source":
            stage = SourceRuntime(**common,
                                  arrivals=scenario.arrival_spec(),
                                  seed=scenario.seed,
                                  n_records=scenario.n_requests,
                                  n_keys=scenario.n_keys)
        elif spec.kind == "sink":
            stage = SinkRuntime(**common)
        else:
            stage = OperatorRuntime(**common)
        run.stages.append(stage)
        run.nodes[node.node_id].stages.append(stage)
    # Edge runtimes: one per (src, dst lane) pair, ids in group order.
    for group in graph.groups:
        src_stage = run.stages[group.src]
        edges = []
        for dst_id in group.dsts:
            dst_stage = run.stages[dst_id]
            edge = EdgeRuntime(len(run.edges),
                               src_stage.spec.name, dst_stage,
                               src_stage.node.node_id)
            run.edges.append(edge)
            edges.append(edge)
            dst_stage.in_edges.append(edge)
            if not edge.local:
                run.nodes[edge.dst_node].in_edges[edge.edge_id] = edge
        src_stage.out_groups.append(GroupRuntime(group.selector, edges))
    # Every node shares one edge-id namespace; pumps index into it.
    return run


def run_pipeline(cluster: "Cluster", scenario: "PipelineScenario",
                 stats: PipelineStats,
                 graph: Optional[StreamGraph] = None) -> PipelineRun:
    """Build, spawn, and run the scenario's pipeline to completion."""
    if graph is None:
        graph = build_pipeline_graph(scenario)
    run = build_pipeline(cluster, graph, scenario, stats)
    for node_rt in run.nodes:
        node_rt.spawn()
    cluster.run(run.programs(), until_ns=scenario.until_ns)
    stats.edges = run.edge_report()
    return run


@dataclass(frozen=True)
class PipelineScenario(ArrivalFields):
    """``kind="pipeline"`` — a streaming dataflow DAG: the scenario's
    ``pipeline`` shape (``rollup`` windowed aggregation or
    ``scatter_gather`` load balancing) with ``n_sources`` arrival-driven
    sources fanning out over ``branches`` lanes, placed per
    ``stage_placement`` (``spread`` / ``colocate``); bounded stage queues
    make FM credit flow control the backpressure.

    Shared fields are reused rather than duplicated: ``arrival`` /
    ``rate_rps`` per source, ``n_requests`` as records per source,
    ``req_bytes`` as the per-record wire footprint, ``work_ns`` as the
    interior per-record demand, ``queue_capacity`` as the bounded
    stage-queue depth, ``n_keys`` as the key universe.
    """

    kind: str = "pipeline"
    pipeline: str = "rollup"         # rollup | scatter_gather
    n_sources: int = 2
    branches: int = 2                # fan-out lanes
    window_ns: int = 200_000         # rollup window width
    window_slide_ns: int = 0         # 0 = tumbling
    partition_by: str = "hash"       # hash | round_robin fan-out selector
    stage_placement: str = "spread"  # spread | colocate
    sink_work_ns: int = 0            # per-record sink demand

    def __post_init__(self) -> None:
        super().__post_init__()
        s = self
        s._choose(pipeline=PIPELINES, stage_placement=PLACEMENTS,
                  partition_by=("hash", "round_robin"))
        s._at_least(n_requests=1, n_sources=1, branches=1, window_ns=1,
                    window_slide_ns=0, sink_work_ns=0)
        if s.window_slide_ns and s.window_ns % s.window_slide_ns:
            raise ValueError(
                f"window_slide_ns must be 0 (tumbling) or divide window_ns "
                f"{s.window_ns}, got {s.window_slide_ns}")
        if s.fm_version != 2:
            raise ValueError(
                "pipelines ride FM 2.x streams (gather/scatter + "
                "extract pacing); fm_version must be 2")
        if s.arrival == "closed":
            raise ValueError(
                "pipeline sources are one-way streams with no "
                "responses to close the loop on; arrival must be "
                "open/open-fixed/bursty")
        if s.req_bytes < MIN_RECORD_BYTES:
            raise ValueError(
                f"req_bytes is the per-record wire footprint and must "
                f"be >= {MIN_RECORD_BYTES}, got {s.req_bytes}")
        need = required_nodes(s.n_sources, s.branches, s.stage_placement)
        if s.n_nodes < need:
            raise ValueError(
                f"{s.stage_placement!r} placement of this pipeline "
                f"needs >= {need} nodes, got {s.n_nodes}")

    def build_stats(self, env) -> PipelineStats:
        """Per-stage pipeline stats."""
        return PipelineStats(env, name=f"pipeline.{self.name}")

    def run(self, cluster: "Cluster", stats: PipelineStats) -> dict:
        """Build, place and run the pipeline; the per-edge rows land in
        ``results`` via the stats object, so no extra section."""
        run_pipeline(cluster, self, stats)
        return {}
