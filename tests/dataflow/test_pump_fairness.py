"""One receive region per node: a full co-hosted queue paces every chain.

FM's flow control is per node — one host receive region, credits back
only for extracted packets (§3.1, §4.1) — and a node's dataflow pump
delivers in arrival order.  So when a slow and a fast sink share a node,
a record bound for the slow sink's full queue stops the pump, extraction
stops for both chains, and the fast chain's sender stalls on credits
like the slow one's: the fast sink ends just ahead of the slow sink, not
at wire speed.  What does not change: the slow queue hits its bound and
no queue exceeds it, nothing drops, every record arrives, and the stalls
land on the senders, never on a sink.
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
    """Two independent chains: stage ids are src_slow=0, src_fast=1,
    slow_sink=2, fast_sink=3 (creation order)."""
    graph = StreamGraph()
    sources = [graph.add_stage(name, "source")
               for name in ("src_slow", "src_fast")]
    sinks = [graph.add_stage(name, "sink", work_ns=work_ns)
             for name, work_ns in (("slow_sink", SLOW_WORK_NS),
                                   ("fast_sink", 0))]
    for src, sink in zip(sources, sinks):
        graph.connect(src, (sink,))
    return graph


#: src_slow on node 1 and src_fast on node 2 feed both sinks on node 0:
#: the two chains share node 0's pump and its one receive region.
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

    def test_slow_queue_paces_the_co_hosted_fast_chain(self, run_and_stats):
        run, _stats = run_and_stats
        done = {stage.spec.name: stage.stage_stats.done_ns
                for stage in run.stages}
        # The slow sink is busy for >= N_RECORDS * SLOW_WORK_NS.  The fast
        # chain's last record gets past node 0's pump only once the slow
        # sink has at most a queue plus the record in service left.
        assert done["slow_sink"] >= N_RECORDS * SLOW_WORK_NS
        assert (done["fast_sink"]
                >= (N_RECORDS - QUEUE_CAPACITY - 1) * SLOW_WORK_NS)
        assert (done["fast_sink"], done["slow_sink"]) == (9_325_492,
                                                          9_806_992)

    def test_slow_queue_was_actually_full(self, run_and_stats):
        run, _stats = run_and_stats
        depths = {stage.spec.name: stage.stage_stats.queue_depth_max
                  for stage in run.stages if stage.queue is not None}
        # The slow sink's bounded queue hit capacity (the stall is real)
        # and neither queue ever exceeded it.
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
        # Both senders exhaust their credits into node 0's one receive
        # region; sinks never stall on credits.
        assert stalls["src_slow"] > 0
        assert stalls["src_fast"] > 0
        assert stalls["slow_sink"] == 0
        assert stalls["fast_sink"] == 0
