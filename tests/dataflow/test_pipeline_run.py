"""End-to-end pipeline runs: conservation, placement, operators."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.dataflow.engine import (PipelineScenario, build_pipeline_graph,
                                   place_stages, required_nodes,
                                   run_pipeline)
from repro.dataflow.graph import StreamGraph
from repro.dataflow.stats import PipelineStats
from repro.workloads.runner import run_scenario


def pipeline_scenario(**overrides):
    """A small rollup pipeline: 1 source -> 2 hash lanes -> sink."""
    spec = dict(
        name="p", kind="pipeline", pipeline="rollup", arrival="open",
        n_nodes=5, n_sources=1, branches=2, rate_rps=200_000.0,
        n_requests=60, req_bytes=64, work_ns=200, window_ns=100_000,
        n_keys=8, queue_capacity=8,
    )
    spec.update(overrides)
    return PipelineScenario(**spec)


def conservation_ok(results):
    c = results["conservation"]
    assert c["ok"], c
    return c


class TestRollup:
    def test_conserves_every_source_record(self):
        results = run_scenario(pipeline_scenario())["results"]
        c = conservation_ok(results)
        assert c["sources_emitted"] == 60
        assert c["sink_source_records"] == 60
        assert results["records"]["dropped"] == 0
        assert results["latency"]["p50_ns"] > 0
        assert results["throughput_rps"] > 0

    def test_per_stage_sections(self):
        results = run_scenario(pipeline_scenario())["results"]
        stages = {s["name"]: s for s in results["stages"]}
        assert set(stages) == {"source0", "rollup.0", "rollup.1", "sink"}
        assert stages["source0"]["emitted"] == 60
        # Hash fan-out: the lanes together see every source record.
        assert (stages["rollup.0"]["received"]
                + stages["rollup.1"]["received"]) == 60
        # Windows aggregate: the sink sees fewer, fatter records.
        assert 0 < stages["sink"]["received"] <= 60
        for stage in stages.values():
            assert stage["done_ns"] is not None

    def test_edges_report_every_hop(self):
        # edge_report() raises if any edge lost records in flight, so a
        # report coming back at all is the no-loss proof; rows carry the
        # per-edge telemetry.
        results = run_scenario(pipeline_scenario())["results"]
        assert results["edges"]
        for edge in results["edges"]:
            assert edge["messages"] >= 1          # at least the EOS frame
            assert edge["records"] >= 0
        source_out = [e for e in results["edges"] if e["src"] == "source0"]
        assert sum(e["records"] for e in source_out) == 60

    def test_sliding_window_still_conserves(self):
        results = run_scenario(pipeline_scenario(
            window_ns=100_000, window_slide_ns=50_000))["results"]
        conservation_ok(results)

    def test_round_robin_partitioning_also_conserves(self):
        results = run_scenario(
            pipeline_scenario(partition_by="round_robin"))["results"]
        conservation_ok(results)


class TestScatterGather:
    def test_round_robin_lanes_share_the_load_evenly(self):
        results = run_scenario(pipeline_scenario(
            pipeline="scatter_gather", branches=3, n_nodes=5))["results"]
        lanes = [s for s in results["stages"]
                 if s["name"].startswith("work.")]
        assert len(lanes) == 3
        assert [lane["received"] for lane in lanes] == [20, 20, 20]
        conservation_ok(results)

    def test_map_lanes_forward_every_record(self):
        results = run_scenario(pipeline_scenario(
            pipeline="scatter_gather"))["results"]
        c = conservation_ok(results)
        # No aggregation: the sink sees exactly the emitted records.
        assert results["records"]["delivered"] == c["sources_emitted"]


class TestPlacement:
    def test_colocate_runs_with_local_edges(self):
        spread = run_scenario(pipeline_scenario())["results"]
        coloc = run_scenario(pipeline_scenario(
            stage_placement="colocate", n_nodes=2))["results"]
        conservation_ok(coloc)
        assert all(not e["local"] for e in spread["edges"])
        assert any(e["local"] for e in coloc["edges"])

    def test_spread_needs_one_node_per_stage(self):
        graph = build_pipeline_graph(pipeline_scenario())
        with pytest.raises(ValueError, match="one node per stage"):
            place_stages(graph, "spread", 3)

    def test_colocate_anchors_lanes_on_source_nodes(self):
        scenario = pipeline_scenario(n_sources=2, n_nodes=2, branches=2,
                                     stage_placement="colocate")
        graph = build_pipeline_graph(scenario)
        mapping = place_stages(graph, "colocate", 2)
        by_name = {graph.stages[sid].name: node
                   for sid, node in mapping.items()}
        assert by_name["source0"] == 0 and by_name["source1"] == 1
        # Lanes deal round-robin over upstream source nodes.
        assert {by_name["rollup.0"], by_name["rollup.1"]} == {0, 1}

    def test_required_nodes_arithmetic(self):
        assert required_nodes("rollup", 3, 4, "spread") == 8
        assert required_nodes("rollup", 3, 4, "colocate") == 3
        assert required_nodes("rollup", 1, 4, "colocate") == 2


class TestCustomGraph:
    def test_filter_pipeline_accounts_dropped_by_predicate(self):
        scenario = pipeline_scenario(branches=1, n_nodes=3, n_keys=8)
        graph = StreamGraph()
        graph.source("source0").filter("even_keys",
                                       name="keep_even").sink("sink")
        graph.validate()
        cluster = Cluster(scenario.n_nodes,
                          fm_version=scenario.fm_version)
        stats = PipelineStats(cluster.env)
        run_pipeline(cluster, scenario, stats, graph=graph)
        results = stats.report()
        c = conservation_ok(results)
        assert c["filtered"] > 0                     # odd keys dropped
        assert c["sink_source_records"] + c["filtered"] == 60
        keep = next(s for s in results["stages"]
                    if s["name"] == "keep_even")
        assert keep["filtered"] + keep["emitted"] == keep["received"]


class TestScenarioValidation:
    def test_pipeline_requires_fm2(self):
        with pytest.raises(ValueError, match="fm_version must be 2"):
            pipeline_scenario(fm_version=1)

    def test_pipeline_rejects_closed_loop_arrivals(self):
        with pytest.raises(ValueError, match="one-way streams"):
            pipeline_scenario(arrival="closed")

    def test_pipeline_wants_enough_nodes(self):
        with pytest.raises(ValueError, match="needs >= 4 nodes"):
            pipeline_scenario(n_nodes=3)

    def test_req_bytes_must_fit_a_record(self):
        with pytest.raises(ValueError, match="per-record wire footprint"):
            pipeline_scenario(req_bytes=16)

    def test_pipeline_rejects_sharding(self):
        with pytest.raises(TypeError, match="servers"):
            pipeline_scenario(servers=4)

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="pipeline must be one of"):
            pipeline_scenario(pipeline="dag")
