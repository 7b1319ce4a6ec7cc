"""Determinism pins: dataflow reports are pure functions of their spec."""

from __future__ import annotations

import pytest

from repro.obs.export import dumps_deterministic
from repro.workloads.presets import PRESETS
from repro.workloads.runner import run_scenario

DATAFLOW_PRESETS = ("dataflow-rollup", "dataflow-scatter-gather")


def canonical(preset, plan=None, observe=False):
    return dumps_deterministic(
        run_scenario(PRESETS[preset], plan=plan, observe=observe))


class TestDataflowDeterminism:
    @pytest.mark.parametrize("preset", DATAFLOW_PRESETS)
    def test_rerun_is_byte_identical(self, preset):
        assert canonical(preset) == canonical(preset)

    @pytest.mark.parametrize("preset", DATAFLOW_PRESETS)
    def test_observer_does_not_perturb_the_report(self, preset):
        assert canonical(preset) == canonical(preset, observe=True)

    def test_fault_preset_rerun_is_byte_identical(self):
        plan = PRESETS.rows["dataflow-rollup-stall"].plan
        first = canonical("dataflow-rollup-stall", plan=plan)
        assert first == canonical("dataflow-rollup-stall", plan=plan)

    def test_presets_really_exercise_both_pipelines(self):
        assert PRESETS["dataflow-rollup"].pipeline == "rollup"
        assert (PRESETS["dataflow-scatter-gather"].pipeline
                == "scatter_gather")
