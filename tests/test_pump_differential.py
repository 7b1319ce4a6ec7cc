"""Stack differential for the one dataflow pump.

The three dataflow presets (60 records a source) × three queue capacities ×
both placements, and the saturating scatter/gather spec of
``benchmarks/test_ext_dataflow.py`` at the two depths where the fold not
taken shows, are run twice — as shipped, where a node's pump always
runs the lane loop, and with the strict arrival-order loop it replaced
patched back in for nodes hosting one remote-fed stage
(``tests/_pumps.py``) — and must produce byte-identical reports on the same
events, the same elisions and the same final clock.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

import pytest

from repro.obs.export import dumps_deterministic
from repro.workloads.presets import PRESET_PLANS, PRESETS
from repro.dataflow.engine import PipelineScenario
from repro.workloads.runner import execute_scenario

from tests._pumps import lone_lane_bounded_by_its_queue, strict_single_stage_pump

BACKPRESSURED = PipelineScenario(
    name="ext-dataflow", kind="pipeline", pipeline="scatter_gather",
    arrival="open-fixed", n_nodes=7, n_sources=2, branches=4,
    rate_rps=2_000_000.0, n_requests=400, req_bytes=64, work_ns=4_000,
    n_keys=64, queue_capacity=16)

CASES = {
    f"{name}/{placement}/q{capacity}": (
        replace(PRESETS[name], stage_placement=placement,
                queue_capacity=capacity, n_requests=60),
        PRESET_PLANS.get(name))
    for name in ("dataflow-rollup", "dataflow-scatter-gather",
                 "dataflow-rollup-stall")
    for placement in ("spread", "colocate")
    for capacity in (1, 2, 16)
}
CASES.update({
    f"backpressured/q{capacity}": (
        replace(BACKPRESSURED, queue_capacity=capacity), None)
    for capacity in (2, 16)
})


def run(case):
    scenario, plan = CASES[case]
    outcome = execute_scenario(scenario, plan=plan)
    env = outcome.cluster.env
    return (outcome.report["results"]["latency"]["p99_ns"],
            dumps_deterministic(outcome.report), env.scheduled_events,
            env.elided, env.now)


shipped = cache(run)


@pytest.mark.parametrize("case", sorted(CASES))
def test_same_report_same_events_same_clock(case):
    with strict_single_stage_pump():
        reference = run(case)
    assert shipped(case) == reference


def p99_us(outcome):
    return round(outcome[0] / 1e3)


def test_a_lone_lane_stages_one_record_not_a_queue():
    """Why the lone-lane bound is 1: bounded by the queue capacity, a node
    hosting one stage buffers queue + lane and EXPERIMENTS' buffer-bloat
    table moves (728 -> 981 us at capacity 16) with every golden green."""
    assert p99_us(shipped("backpressured/q16")) == 728
    assert p99_us(shipped("backpressured/q2")) == 627
    with lone_lane_bounded_by_its_queue():
        assert p99_us(run("backpressured/q16")) == 981
