"""The ``KINDS`` table is the scenario runner's contract: every preset
runs through it, field ownership is unambiguous, and everything a
scenario can get wrong is a ``ValueError`` from ``Scenario(...)`` itself —
never a failure inside a built cluster or a forked partition worker."""

import json
from dataclasses import fields, replace

import pytest

from repro.obs.export import dumps_deterministic
from repro.workloads.presets import PRESETS
from repro.workloads.runner import (KINDS, SERIAL_ONLY, Scenario,
                                    scenario_report_dict)

from tests.golden import regen

#: One non-default value per serial-only field.
SERIAL_ONLY_VALUES = {
    "replicas": 2,
    "until_ns": 1_000_000,
    "abandon_after_ns": 1_000_000,
    "sample_interval_ns": 10_000,
    "slo_availability": 0.99,
    "slo_latency_p99_ns": 100_000,
}


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
    def test_the_serial_only_values_cover_the_table(self):
        assert set(SERIAL_ONLY_VALUES) == set(SERIAL_ONLY)

    @pytest.mark.parametrize("field", list(SERIAL_ONLY))
    def test_serial_only_fields_are_fenced_by_name(self, field):
        with pytest.raises(ValueError, match=f"{field} is serial-only"):
            replace(PRESETS["rpc-partitioned"],
                    **{field: SERIAL_ONLY_VALUES[field]})

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
