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
    @pytest.mark.parametrize("base, overrides, readers", [
        ("rdma-pingpong", {"n_nodes": 4, "partition_groups": 2},
         "rpc/halo/allreduce"),
        ("dataflow-rollup", {"n_nodes": 12, "partition_groups": 2},
         "rpc/halo/allreduce"),
        ("dataflow-rollup", {"sample_interval_ns": 50_000},
         "rpc/halo/allreduce"),
        ("mpi-halo", {"population": 8}, "rpc"),
        ("mpi-halo", {"servers": 3}, "rpc"),
        ("mpi-halo", {"balancer": "least_pending"}, "rpc"),
        ("mpi-halo", {"workers": 9}, "rpc"),
        ("mpi-halo", {"pipeline": "scatter_gather"}, "pipeline"),
        ("mpi-halo", {"grad_bytes": 64}, "allreduce"),
        ("rpc-open", {"halo_bytes": 64}, "halo"),
        ("rpc-open", {"req_bytes": 32, "window_ns": 5}, "pipeline"),
    ])
    def test_kinds_fence_the_model_fields_they_do_not_build(
            self, base, overrides, readers):
        field = list(overrides)[-1]
        with pytest.raises(
                ValueError,
                match=f"{field} is read by kind {readers} only.*must hold"):
            replace(PRESETS[base], **overrides)

    def test_a_spelled_out_default_is_not_a_foreign_setting(self):
        """``perfbench/specs`` spell defaults out: the check compares
        values, not presence."""
        Scenario.from_dict({"name": "x", "kind": "halo", "arrival": "open",
                            "servers": 1, "pipeline": "rollup"})

    def test_run_length_is_every_kinds_to_scale(self):
        """``perfbench`` scales ``n_requests`` and ``iterations`` on every
        spec without asking its kind: no kind claims either."""
        replace(PRESETS["mpi-halo"], n_requests=4, iterations=4)
        replace(PRESETS["rpc-open"], n_requests=4, iterations=4)

    def test_every_kind_reads_only_fields_scenario_has(self):
        names = {f.name for f in fields(Scenario)}
        for kind in KINDS.values():
            assert set(kind.fields) <= set(kind.reads) <= names

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
