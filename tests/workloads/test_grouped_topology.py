"""Grouped topologies (``partition_groups`` / ``trunk_propagation_ns``):
the pure placement and arrival functions a grouped rpc scenario rests on,
its validation, the trunk as a real link of the model — and the proof
that a grouped preset is an ordinary run: observers and fault plans
compose with it at preset defaults.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.faults.plan import FaultPlan, NicStall
from repro.obs.export import validate_trace_events
from repro.workloads.arrivals import AggregateOpenLoop, OpenLoop
from repro.workloads.presets import PRESETS
from repro.workloads.rpc_kind import (client_arrival, placement,
                                      population_shares)
from repro.workloads.run import main
from repro.workloads.rpc_kind import RpcScenario
from repro.workloads.runner import run_scenario


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

    def test_more_servers_than_groups_take_the_next_offset(self):
        scenario = RpcScenario(name="x", kind="rpc", n_nodes=8,
                               partition_groups=2, servers=3)
        # Server 2 wraps to group 0 at within-group offset 1.
        assert placement(scenario) == ([0, 1, 4], [2, 3, 5, 6, 7])

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
    def test_population_needs_open_arrival(self):
        with pytest.raises(ValueError):
            RpcScenario(name="x", kind="rpc", arrival="closed",
                        n_nodes=4, population=100)
        with pytest.raises(ValueError):
            RpcScenario(name="x", kind="rpc", arrival="open",
                        n_nodes=4, population=1)   # fewer than client nodes

    def test_nodes_must_split_evenly_over_groups(self):
        with pytest.raises(ValueError, match="do not split evenly"):
            RpcScenario(name="x", kind="rpc", n_nodes=8, partition_groups=3)


def test_the_trunk_is_a_real_link_of_the_model():
    base = PRESETS["rpc-partitioned"]
    near = run_scenario(base)["results"]
    far = run_scenario(replace(
        base, trunk_propagation_ns=2 * base.trunk_propagation_ns))["results"]
    assert far["completed"] == near["completed"] == 240
    assert far["latency"]["p50_ns"] > near["latency"]["p50_ns"]


GROUPED = {
    "rpc-partitioned": PRESETS["rpc-partitioned"],
    # The 100k preset at the same aggregate rate as a 2 000-client one
    # (5 000 rps, so the fault window below still sees traffic) from a tenth
    # of the clients: the same composition in a tenth of the simulated time.
    "rpc-aggregate-200": replace(PRESETS["rpc-aggregate-100k"],
                                 population=200, rate_rps=25.0),
}


class TestObserversAndFaultsCompose:
    """A grouped preset has no second way to run, so nothing about it is
    fenced: the standard hooks attach at preset defaults."""

    @pytest.mark.parametrize("name", sorted(GROUPED))
    def test_observer_does_not_move_the_report(self, name):
        scenario = GROUPED[name]
        assert run_scenario(scenario, observe=True) == run_scenario(scenario)

    @pytest.mark.parametrize("name", sorted(GROUPED))
    def test_fault_plan_and_observer_together(self, name):
        scenario = GROUPED[name]
        server = placement(scenario)[0][-1]       # a far-group server
        plan = FaultPlan(seed=1, episodes=(
            NicStall(node=server, start_ns=0, end_ns=1_000_000,
                     extra_ns=5_000),))
        report = run_scenario(scenario, plan=plan, observe=True)
        assert report["faults"]["events"] >= 1
        assert report["results"]["sent"] == \
            report["results"]["completed"] + report["results"]["drops"]["total"]

    def test_cli_traces_a_grouped_preset(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["rpc-partitioned", "--observe",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        document = json.loads(trace.read_text())
        validate_trace_events(document)
        # Trunk links are tracks like any other link.
        assert any(event.get("args", {}).get("name") == "link:s0->s1"
                   for event in document["traceEvents"])
