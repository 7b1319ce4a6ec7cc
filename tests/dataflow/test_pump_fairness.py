"""Pump fairness regression: a full co-hosted queue stalls only its lane.

The bug this pins (fixed in the round-robin pump): the per-node pump used
to deliver strictly in arrival order, so one record bound for a full
stage queue head-of-line blocked every later message for *other* stages
on the same node.  With a slow and a fast sink co-hosted, the fast sink
was paced by the slow sink's service time.  The fair pump keeps one
staging lane per destination stage and round-robins delivery, so the
fast sink drains at wire speed while the slow sink's lane alone carries
the backpressure.
"""

from __future__ import annotations

import pytest

import repro.dataflow.engine as engine_mod
from repro.cluster.cluster import Cluster
from repro.dataflow.engine import run_pipeline
from repro.dataflow.graph import StreamGraph
from repro.dataflow.stats import PipelineStats
from repro.dataflow.engine import PipelineScenario

#: Per-record service demand of the slow sink; the fast sink consumes
#: instantly.  80 records => >= 9.6 ms of serialised slow-sink work.
SLOW_WORK_NS = 120_000
N_RECORDS = 80
QUEUE_CAPACITY = 4


def co_hosted_graph() -> StreamGraph:
    """Two independent chains whose sinks share a node: stage ids are
    src_slow=0, src_fast=1, slow_sink=2, fast_sink=3 (creation order)."""
    graph = StreamGraph()
    graph.source("src_slow").sink("slow_sink", work_ns=SLOW_WORK_NS)
    graph.source("src_fast").sink("fast_sink", work_ns=0)
    graph.validate()
    return graph


#: Sources on nodes 1 and 2; both sinks co-hosted on node 0, so both
#: chains' records funnel through node 0's single pump.
PLACEMENT = {0: 1, 1: 2, 2: 0, 3: 0}


def run_co_hosted(monkeypatch):
    monkeypatch.setattr(engine_mod, "place_stages",
                        lambda graph, placement, n_nodes: dict(PLACEMENT))
    scenario = PipelineScenario(
        name="pump-fairness", kind="pipeline", pipeline="scatter_gather",
        stage_placement="colocate", arrival="open-fixed", n_nodes=3,
        n_sources=2, branches=1, rate_rps=1_000_000.0,
        n_requests=N_RECORDS, req_bytes=64, work_ns=0, sink_work_ns=0,
        queue_capacity=QUEUE_CAPACITY, n_keys=8,
    )
    cluster = Cluster(scenario.n_nodes, fm_version=scenario.fm_version)
    stats = PipelineStats(cluster.env, name="pump-fairness")
    run = run_pipeline(cluster, scenario, stats, graph=co_hosted_graph())
    return run, stats


class TestPumpFairness:
    @pytest.fixture(scope="class")
    def run_and_stats(self, request):
        monkeypatch = pytest.MonkeyPatch()
        request.addfinalizer(monkeypatch.undo)
        return run_co_hosted(monkeypatch)

    def test_fast_stage_progresses_while_slow_queue_is_full(
            self, run_and_stats):
        run, _stats = run_and_stats
        done = {stage.spec.name: stage.stage_stats.done_ns
                for stage in run.stages}
        # The slow sink is busy for >= N_RECORDS * SLOW_WORK_NS.  Under
        # the head-of-line pump the fast sink's records trickled out on
        # the slow sink's schedule; fairness means the fast sink is long
        # done while the slow sink is still grinding through its queue.
        assert done["slow_sink"] >= N_RECORDS * SLOW_WORK_NS
        assert done["fast_sink"] < done["slow_sink"] / 3
        assert done["fast_sink"] < N_RECORDS * SLOW_WORK_NS / 2

    def test_slow_queue_was_actually_full(self, run_and_stats):
        run, _stats = run_and_stats
        depths = {stage.spec.name: stage.stage_stats.queue_depth_max
                  for stage in run.stages if stage.queue is not None}
        # The slow sink's bounded queue hit capacity (the stall is real)
        # and neither queue ever exceeded it (staging lanes don't break
        # the bound).
        assert depths["slow_sink"] == QUEUE_CAPACITY
        assert depths["fast_sink"] <= QUEUE_CAPACITY

    def test_zero_drops_and_conservation(self, run_and_stats):
        run, stats = run_and_stats
        # edge_report() raises if any edge lost records in flight.
        for row in run.edge_report():
            assert row["records"] == N_RECORDS, row
        assert stats.counters["delivered"] == 2 * N_RECORDS
        assert stats.counters["dropped"] == 0
        for stage in run.stages:
            if stage.spec.kind == "sink":
                assert stage.stage_stats.counters["received"] == N_RECORDS

    def test_backpressure_still_reaches_the_slow_source(self, run_and_stats):
        run, _stats = run_and_stats
        stalls = {stage.spec.name: stage.stage_stats.counters["credit_stalls"]
                  for stage in run.stages}
        # The slow chain's sender exhausts its credits (the lane bound
        # re-engages FM backpressure); sinks never stall on credits.
        assert stalls["src_slow"] > 0
        assert stalls["slow_sink"] == 0
        assert stalls["fast_sink"] == 0
