"""The ``KINDS`` table is the scenario runner's contract: every preset
runs through it, field ownership is unambiguous, and everything a
scenario can get wrong is a ``ValueError`` from ``Scenario(...)`` itself —
never a failure inside a built cluster."""

import json
from dataclasses import fields, replace

import pytest

from repro.obs.export import dumps_deterministic
from repro.workloads.presets import PRESETS
from repro.workloads.runner import KINDS, Scenario, scenario_report_dict

from tests.golden import regen

class TestKindsTable:
    def test_every_preset_kind_is_registered_and_every_kind_exercised(self):
        preset_kinds = {scenario.kind for scenario in PRESETS.values()}
        assert preset_kinds == set(KINDS)
        golden_kinds = {scenario.kind
                        for scenario, _plan in regen.cases().values()}
        assert golden_kinds == set(KINDS)

    def test_each_field_has_at_most_one_owner(self):
        names = {f.name for f in fields(Scenario)}
        owned = [name for kind in KINDS.values() for name in kind.fields]
        assert len(owned) == len(set(owned)), "a field is claimed twice"
        assert set(owned) <= names, "a kind claims a field Scenario lacks"

    @pytest.mark.parametrize("name", list(regen.cases()))
    def test_reported_fields_match_the_golden(self, name):
        scenario, _plan = regen.cases()[name]
        fresh = json.loads(dumps_deterministic(scenario_report_dict(scenario)))
        assert fresh == json.loads(regen.golden_text(name))["scenario"]


class TestValidationAtConstruction:
    @pytest.mark.parametrize("base, overrides, message", [
        ("rdma-pingpong", {"n_nodes": 4, "partition_groups": 2},
         "partition_groups must be 0"),
        ("dataflow-rollup", {"n_nodes": 12, "partition_groups": 2},
         "population/partition_groups must be 0"),
        ("mpi-halo", {"population": 8},
         "replicas > 1 and population need kind='rpc'"),
    ])
    def test_kinds_fence_the_model_fields_they_do_not_build(
            self, base, overrides, message):
        with pytest.raises(ValueError, match=message):
            replace(PRESETS[base], **overrides)

    @pytest.mark.parametrize("base, overrides", [
        ("rpc-open", {"policy": "bogus"}),
        ("rpc-partitioned", {"policy": "bogus"}),
        ("rpc-open", {"fm_version": 3}),
        ("mpi-halo", {"n_nodes": 1}),
        ("rdma-pingpong", {"n_nodes": 1}),
    ])
    def test_bad_values_fail_before_anything_is_built(self, base, overrides):
        (field,) = overrides
        with pytest.raises(ValueError, match=field):
            replace(PRESETS[base], **overrides)
