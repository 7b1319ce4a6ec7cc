"""Dataflow smoke test — wired into tier-1 via pyproject testpaths.

Exercises the pipeline scenario CLI end to end on both dataflow presets:
each run emits the full pipeline report schema (conservation, per-stage
telemetry, per-edge rows), reruns are byte-identical, the observer
changes nothing, the stall preset composes its built-in fault plan, and
``list`` describes every registered preset.  Fast by
construction, so it runs with the regular test suite rather than the
benchmark tier.
"""

from __future__ import annotations

import json

import pytest

from repro.workloads.run import main
from repro.workloads.presets import PRESETS

pytestmark = pytest.mark.fast

DATAFLOW_PRESETS = ("dataflow-rollup", "dataflow-scatter-gather")


def run_cli(args, capsys):
    assert main(args) == 0
    return capsys.readouterr().out


class TestDataflowSmoke:
    @pytest.mark.parametrize("preset", DATAFLOW_PRESETS)
    def test_cli_emits_a_complete_pipeline_report(self, preset, capsys):
        report = json.loads(run_cli([preset], capsys))
        results = report["results"]
        conservation = results["conservation"]
        assert conservation["ok"]
        assert conservation["sources_emitted"] == (
            conservation["sink_source_records"] + conservation["filtered"])
        assert results["records"]["dropped"] == 0
        assert results["latency"]["p50_ns"] > 0
        assert results["throughput_rps"] > 0
        assert results["stages"] and results["edges"]
        assert all(edge["messages"] >= 1 for edge in results["edges"])
        assert report["scenario"]["name"] == preset
        assert report["scenario"]["pipeline"] in ("rollup",
                                                  "scatter_gather")

    @pytest.mark.parametrize("preset", DATAFLOW_PRESETS)
    def test_rerun_is_byte_identical(self, preset, capsys):
        assert run_cli([preset], capsys) == run_cli([preset], capsys)

    def test_observer_does_not_perturb_the_report(self, capsys):
        plain = run_cli(["dataflow-rollup"], capsys)
        observed = run_cli(["dataflow-rollup", "--observe"], capsys)
        assert plain == observed

    def test_stall_preset_composes_its_built_in_fault_plan(self, capsys):
        faulted = json.loads(run_cli(["dataflow-rollup-stall"], capsys))
        clean = json.loads(run_cli(["dataflow-rollup-stall", "--no-fault"],
                                   capsys))
        assert faulted["results"]["credit_stalls"] > 0
        assert clean["results"]["credit_stalls"] == 0
        assert faulted["results"]["conservation"]["ok"]

    def test_non_pipeline_reports_keep_their_schema(self, capsys):
        # Pipeline-only Scenario fields stay out of rpc reports, so the
        # new kind cannot ripple into previously pinned report bytes.
        report = json.loads(run_cli(["rpc-open"], capsys))
        assert "pipeline" not in report["scenario"]
        assert "stage_placement" not in report["scenario"]


class TestListPresets:
    def test_every_preset_is_listed_with_a_description(self, capsys):
        out = run_cli(["list"], capsys)
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(PRESETS)
        for line in lines:
            shape, _, description = line.partition("  ")
            name = shape.partition(":")[0]
            assert name.strip() in PRESETS
            assert description.strip()
