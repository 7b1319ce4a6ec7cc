"""Observability smoke test — wired into tier-1 via pyproject testpaths.

Runs a short FM2 workload with full observability on, validates the
exported Perfetto trace against the schema subset, checks the acceptance
floor of >= 5 distinct component tracks, and drives the breakdown-report
CLI end to end.  Fast by construction (one small simulated exchange), so
it runs with the regular test suite rather than the benchmark tier.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.obs.export import (
    distinct_tracks,
    export_trace,
    validate_trace_events,
)
from repro.obs.report import main as report_main
from repro.workloads.presets import PRESETS
from repro.workloads.runner import execute_scenario

pytestmark = pytest.mark.fast


def observed_journey():
    """The observer of one 64 B FM 2.x journey."""
    scenario = replace(PRESETS["journey-fm2"], msg_bytes=64)
    return execute_scenario(scenario, observe=True).observer


class TestObservabilitySmoke:
    def test_full_obs_run_exports_valid_trace(self, tmp_path):
        observer = observed_journey()
        assert observer.spans, "no spans emitted with observability on"
        path = export_trace(observer, tmp_path / "smoke.json")
        trace = json.loads(path.read_text())
        validate_trace_events(trace)
        assert distinct_tracks(trace) >= 5

    def test_metrics_populated(self):
        observer = observed_journey()
        (latency,) = observer.metrics.histograms("packet.latency_ns")
        assert latency.count == 1
        assert observer.metrics.histograms("packet.stage")
        assert observer.metrics.copy_bytes_by_label()

    def test_report_cli_exits_zero(self, capsys):
        assert report_main(["journey-fm2"]) == 0
        out = capsys.readouterr().out
        assert "breakdown report" in out
        assert "TOTAL" in out
