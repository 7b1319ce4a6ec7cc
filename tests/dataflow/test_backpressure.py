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


def saturating_scenario(queue_capacity):
    """The saturating scatter/gather spec of
    ``benchmarks/test_ext_dataflow.py``: 2 sources at 2 M records/s into 4
    lanes at 4 µs a record, every stage on its own node."""
    return PipelineScenario(
        name="ext-dataflow", kind="pipeline", pipeline="scatter_gather",
        arrival="open-fixed", n_nodes=7, n_sources=2, branches=4,
        rate_rps=2_000_000.0, n_requests=400, req_bytes=64, work_ns=4_000,
        n_keys=64, queue_capacity=queue_capacity)


class TestQueueDepthTail:
    def test_a_node_buffers_its_queue_and_no_more(self):
        """EXPERIMENTS' buffer-bloat table at capacity 2 and 16: a node
        holds at most its stages' queues, so the delivered tail grows with
        the depth and with nothing else."""
        p99_us = {capacity: run_scenario(saturating_scenario(capacity))
                  ["results"]["latency"]["p99_ns"] / 1e3
                  for capacity in (2, 16)}
        assert {c: round(p) for c, p in p99_us.items()} == {2: 627, 16: 728}
