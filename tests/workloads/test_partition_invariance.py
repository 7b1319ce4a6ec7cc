"""Partition-count invariance: the tentpole contract, pinned byte-for-byte.

A scenario's report must not depend on how many OS worker processes
simulate it — ``partitions=0`` (the serial runner), ``partitions=1`` (the
parallel machinery with no peers) and ``partitions=2`` must all emit the
same canonical JSON.  Alongside the end-to-end pins live the pure
placement/arrival functions the invariance rests on, and the validation
fences that keep unserialisable scenario features out of partitioned runs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults.plan import FaultPlan
from repro.obs.export import dumps_deterministic
from repro.workloads.arrivals import AggregateOpenLoop, OpenLoop
from repro.workloads.presets import PRESETS
from repro.workloads.rpc_kind import (client_arrival, placement,
                                      population_shares)
from repro.workloads.runner import (Scenario, execute_scenario,
                                    run_scenario, scenario_report_dict)


def reports_for(scenario, partition_counts):
    return [dumps_deterministic(
                run_scenario(replace(scenario, partitions=p)))
            for p in partition_counts]


class TestInvariance:
    def test_sharded_preset_reports_byte_identical(self):
        serial, p1, p2 = reports_for(PRESETS["rpc-partitioned"], (0, 1, 2))
        assert serial == p1 == p2

    def test_unsharded_grouped_scenario_byte_identical(self):
        scenario = Scenario(name="grouped-1s", kind="rpc", arrival="open",
                            n_nodes=4, partition_groups=2, servers=1,
                            rate_rps=20_000.0, n_requests=24)
        serial, p2 = reports_for(scenario, (0, 2))
        assert serial == p2

    def test_population_scenario_byte_identical(self):
        # A miniature of the 10^5-client preset: aggregate arrivals,
        # 4 shards over 4 groups, 2 workers.
        scenario = replace(PRESETS["rpc-aggregate-100k"],
                           name="aggregate-mini", population=600,
                           rate_rps=50.0)
        serial, p2 = reports_for(scenario, (0, 2))
        assert serial == p2

    def test_report_never_names_the_partition_count(self):
        spec = scenario_report_dict(PRESETS["rpc-partitioned"])
        assert "partitions" not in spec
        # Model-affecting fields stay in the report.
        assert spec["partition_groups"] == 2
        assert spec["trunk_propagation_ns"] == 4_000


class TestPurePlacement:
    def test_legacy_layout_without_groups(self):
        scenario = replace(PRESETS["rpc-open"], servers=1)
        assert placement(scenario) == ([0], [1, 2, 3])

    def test_grouped_layout_stripes_servers_across_groups(self):
        scenario = PRESETS["rpc-partitioned"]     # 8 nodes, 2 groups
        server_nodes, client_nodes = placement(scenario)
        # Server 0 -> group 0 offset 0 (node 0), server 1 -> group 1
        # offset 0 (node 4): one server per group.
        assert server_nodes == [0, 4]
        assert client_nodes == [1, 2, 3, 5, 6, 7]

    def test_population_shares_split_with_remainder_first(self):
        assert population_shares(10, 4) == [3, 3, 2, 2]
        assert population_shares(8, 4) == [2, 2, 2, 2]

    def test_client_arrival_population_mode(self):
        scenario = replace(PRESETS["rpc-aggregate-100k"], population=100)
        spec, budget = client_arrival(scenario, 0, 12)
        assert isinstance(spec, AggregateOpenLoop)
        assert spec.population == population_shares(100, 12)[0]
        assert budget == scenario.n_requests * spec.population

    def test_client_arrival_plain_mode(self):
        scenario = PRESETS["rpc-open"]
        spec, budget = client_arrival(scenario, 2, 3)
        assert isinstance(spec, OpenLoop)
        assert budget == scenario.n_requests


class TestValidation:
    def test_partitions_require_grouped_rpc(self):
        with pytest.raises(ValueError):
            Scenario(name="x", kind="halo", partitions=2)
        with pytest.raises(ValueError):
            Scenario(name="x", kind="rpc", partitions=2)   # no groups

    def test_groups_must_divide_over_partitions(self):
        with pytest.raises(ValueError):
            Scenario(name="x", kind="rpc", n_nodes=8,
                     partition_groups=2, partitions=3)

    def test_serial_only_features_fenced_out(self):
        for field in ({"until_ns": 1_000_000},
                      {"abandon_after_ns": 1_000_000},
                      {"sample_interval_ns": 10_000}):
            with pytest.raises(ValueError):
                replace(PRESETS["rpc-partitioned"], **field)

    def test_population_needs_open_arrival(self):
        with pytest.raises(ValueError):
            Scenario(name="x", kind="rpc", arrival="closed",
                     n_nodes=4, population=100)
        with pytest.raises(ValueError):
            Scenario(name="x", kind="rpc", arrival="open",
                     n_nodes=4, population=1)   # fewer than client nodes

    def test_plan_and_observe_are_serial_only(self):
        scenario = PRESETS["rpc-partitioned"]
        with pytest.raises(ValueError):
            execute_scenario(scenario, plan=FaultPlan())
        with pytest.raises(ValueError):
            execute_scenario(scenario, observe=True)
