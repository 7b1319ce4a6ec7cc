"""Backpressure regression: a slow sink bounds the whole pipeline.

The chain under test (the tentpole mechanism): the sink's bounded queue
fills -> its node's pump blocks on ``queue.put`` -> the FM receive region
fills -> credits stop flowing back -> the upstream stage stalls in
``acquire_credit`` -> *its* queue fills -> the stall propagates hop by
hop to the source.  Offered load yields to capacity with **zero drops**,
and every stall episode is attributed to the stage that stalled.
"""

from __future__ import annotations

from repro.dataflow.engine import PipelineScenario
from repro.workloads.runner import run_scenario


def slow_sink_scenario(**overrides):
    """1 source -> 1 map lane -> a sink 25x slower than the offered load."""
    spec = dict(
        name="slow-sink", kind="pipeline", pipeline="scatter_gather",
        arrival="open-fixed", n_nodes=3, n_sources=1, branches=1,
        rate_rps=2_000_000.0, n_requests=120, req_bytes=64, work_ns=0,
        sink_work_ns=50_000, n_keys=8, queue_capacity=4,
    )
    spec.update(overrides)
    return PipelineScenario(**spec)


class TestSlowSinkBackpressure:
    def test_zero_drops_and_conservation(self):
        results = run_scenario(slow_sink_scenario())["results"]
        assert results["records"]["dropped"] == 0
        assert results["conservation"]["ok"]
        assert results["conservation"]["sink_source_records"] == 120

    def test_bounded_queues_never_exceed_capacity(self):
        results = run_scenario(slow_sink_scenario())["results"]
        for stage in results["stages"]:
            assert stage["queue_depth_max"] <= 4, stage

    def test_stall_propagates_hop_by_hop_to_the_source(self):
        results = run_scenario(slow_sink_scenario())["results"]
        stages = {s["name"]: s for s in results["stages"]}
        # The lane feeding the slow sink stalls first...
        assert stages["work.0"]["credit_stalls"] > 0
        assert stages["work.0"]["credit_stall_ns"] > 0
        # ...and the stall reaches the source through the lane's own
        # bounded queue: credits are the backpressure, end to end.
        assert stages["source0"]["credit_stalls"] > 0
        # Sinks only consume; they never stall on credits.
        assert stages["sink"]["credit_stalls"] == 0

    def test_aggregate_stall_telemetry_matches_stage_sums(self):
        results = run_scenario(slow_sink_scenario())["results"]
        stages = results["stages"]
        assert results["credit_stalls"] == sum(
            s["credit_stalls"] for s in stages)
        assert results["credit_stall_ns"] == sum(
            s["credit_stall_ns"] for s in stages)

    def test_relieving_the_sink_removes_the_stalls(self):
        slow = run_scenario(slow_sink_scenario())["results"]
        fast = run_scenario(slow_sink_scenario(
            name="fast-sink", sink_work_ns=0,
            rate_rps=100_000.0))["results"]
        assert slow["credit_stalls"] > 0
        assert fast["credit_stalls"] == 0
        assert fast["conservation"]["ok"]
        # Backpressure costs wall-clock, not records.
        assert slow["elapsed_ns"] > fast["elapsed_ns"]
