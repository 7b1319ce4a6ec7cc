"""Dataflow under injected faults: stalls surface as telemetry, not hangs.

``dataflow-rollup-stall`` pins a NIC firmware stall (0.5 ms - 2.5 ms,
+20 us per packet event) on node 4 — an *interior* window lane under
spread placement.  The run must complete inside its ``until_ns`` deadline
(:meth:`Cluster.run` raises ``TimeoutError`` otherwise), conserve every
record with zero drops, and show the episode as credit-stall telemetry on
the stages whose sends crossed the slowed NIC.
"""

from __future__ import annotations

from repro.workloads.presets import PRESET_PLANS, PRESETS
from repro.workloads.runner import run_scenario


def run_stall_preset(plan="preset"):
    scenario = PRESETS["dataflow-rollup-stall"]
    if plan == "preset":
        plan = PRESET_PLANS["dataflow-rollup-stall"]
    return scenario, run_scenario(scenario, plan=plan)


class TestNicStallOnInteriorStage:
    def test_completes_within_the_deadline_with_zero_drops(self):
        scenario, report = run_stall_preset()
        results = report["results"]
        assert scenario.until_ns is not None
        assert report["sim_end_ns"] <= scenario.until_ns
        assert results["records"]["dropped"] == 0
        assert results["conservation"]["ok"]
        for stage in results["stages"]:
            assert stage["done_ns"] is not None, stage["name"]

    def test_stall_surfaces_as_credit_stall_telemetry(self):
        _, report = run_stall_preset()
        results = report["results"]
        assert results["credit_stalls"] > 0
        assert results["credit_stall_ns"] > 0
        stages = {s["name"]: s for s in results["stages"]}
        # The stalled NIC (node 4) slows both directions: the sources
        # feeding the lane stall on withheld credits...
        episode = PRESET_PLANS["dataflow-rollup-stall"].episodes[0]
        victims = [s for s in results["stages"]
                   if s["kind"] == "source" and s["credit_stalls"] > 0]
        assert victims, "no source saw the stall"
        # ...and the lane on the stalled node backs up behind its own
        # slowed sends, filling its bounded queue.
        lane = next(s for s in results["stages"]
                    if s["node"] == episode.node)
        assert lane["queue_depth_max"] > stages["rollup.0"][
            "queue_depth_max"] or lane["credit_stalls"] > 0

    def test_fault_is_the_cause_the_clean_run_is_the_control(self):
        _, faulted = run_stall_preset()
        _, clean = run_stall_preset(plan=None)
        assert clean["results"]["credit_stalls"] == 0
        assert faulted["results"]["credit_stalls"] > 0
        # Same records conserved either way — the fault costs latency,
        # not records (the open-loop source schedule fixes the end time,
        # so the stall shows up in the tail, not the elapsed clock).
        assert (faulted["results"]["conservation"]
                == clean["results"]["conservation"])
        assert (faulted["results"]["latency"]["p99_ns"]
                > 2 * clean["results"]["latency"]["p99_ns"])
