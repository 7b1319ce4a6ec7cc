"""The ``KINDS`` table is the scenario runner's contract: every preset
runs through it (a kind's class is reached through ``kind_class``, which
imports it), each kind's class declares exactly the fields its run
reads, and everything a scenario can get wrong is refused before a
cluster is built — a field the kind lacks is a ``TypeError`` from the
class (a ``ValueError`` naming the field and the kind from
``Scenario.from_dict``), every other mistake a ``ValueError`` from its
``__post_init__``."""

import json
import re
from dataclasses import asdict, fields, replace

import pytest

from repro.obs.export import dumps_deterministic
from repro.workloads.presets import PRESETS
from repro.workloads.runner import KINDS, Scenario, kind_class

from tests.golden import regen

BASE = {"name", "kind", "seed", "n_nodes", "fm_version", "machine",
        "n_requests", "iterations", "until_ns"}
ARRIVAL = {"arrival", "rate_rps", "burst_on_ns", "burst_off_ns",
           "req_bytes", "work_ns", "n_keys", "queue_capacity"}
TELEMETRY = {"sample_interval_ns", "slo_availability", "slo_latency_p99_ns",
             "partition_groups", "trunk_propagation_ns"}
#: What each kind's run reads beyond the base fields.
READS = {
    "rpc": ARRIVAL | TELEMETRY | {
        "think_ns", "resp_bytes", "workers", "policy",
        "deadline_ns", "abandon_after_ns", "servers", "balancer", "vnodes",
        "key_skew", "shard_policies", "replicas", "probe_interval_ns",
        "failover_timeout_ns", "population"},
    "halo": {"compute_ns", "halo_bytes", "mpi_binding"},
    "allreduce": {"compute_ns", "grad_bytes", "mpi_binding"},
    "pipeline": ARRIVAL | {
        "pipeline", "n_sources", "branches", "window_ns", "window_slide_ns",
        "partition_by", "stage_placement", "sink_work_ns"},
    "micro": {"pattern", "msg_bytes", "mpi_binding"},
}


class TestKindsTable:
    def test_every_preset_kind_is_registered_and_every_kind_exercised(self):
        preset_kinds = {scenario.kind for scenario in PRESETS.values()}
        assert preset_kinds == set(KINDS)
        golden_kinds = {scenario.kind
                        for scenario, _plan in regen.cases().values()}
        assert golden_kinds == set(KINDS)

    def test_each_kind_declares_exactly_the_fields_it_reads(self):
        for kind in KINDS:
            cls = kind_class(kind)
            assert {f.name for f in fields(cls)} == BASE | READS[kind], kind
            assert cls.__dataclass_fields__["kind"].default == kind
        assert {kind: len(fields(kind_class(kind))) for kind in KINDS} == {
            "rpc": 37, "halo": 12, "allreduce": 12, "pipeline": 25,
            "micro": 12}

    @pytest.mark.parametrize("kind", ["batch", "RPC", 7, None])
    def test_an_unknown_kind_names_every_kind(self, kind):
        message = re.escape(
            "kind must be one of ('rpc', 'halo', 'allreduce', 'pipeline', "
            f"'micro'), got {kind!r}")
        with pytest.raises(ValueError, match=message):
            kind_class(kind)
        with pytest.raises(ValueError, match=message):
            Scenario.from_dict({"name": "x", "kind": kind})

    @pytest.mark.parametrize("name", list(regen.cases()))
    def test_reported_fields_match_the_golden(self, name):
        scenario, _plan = regen.cases()[name]
        fresh = json.loads(dumps_deterministic(asdict(scenario)))
        assert fresh == json.loads(regen.golden_text(name))["scenario"]

    def test_list_prints_one_line_per_preset(self, capsys):
        from repro.workloads.run import main

        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == sorted(PRESETS)
        assert lines[sorted(PRESETS).index("rpc-sharded")].endswith(
            "servers=4 balancer=static  "
            + PRESETS.rows["rpc-sharded"].description)
        assert lines[sorted(PRESETS).index("mpi-halo")] == (
            "mpi-halo: kind=halo nodes=4 fm=2  "
            "MPI halo-exchange stencil over FM")


class TestValidationAtConstruction:
    @pytest.mark.parametrize("base, overrides", [
        ("rdma-pingpong", {"n_nodes": 4, "partition_groups": 2}),
        ("dataflow-rollup", {"n_nodes": 12, "partition_groups": 2}),
        ("dataflow-rollup", {"sample_interval_ns": 50_000}),
        ("mpi-halo", {"partition_groups": 2}),
        ("mpi-halo", {"population": 8}),
        ("mpi-halo", {"servers": 3}),
        ("mpi-halo", {"balancer": "least_pending"}),
        ("mpi-halo", {"workers": 9}),
        ("mpi-halo", {"pipeline": "scatter_gather"}),
        ("mpi-halo", {"grad_bytes": 64}),
        ("rpc-open", {"halo_bytes": 64}),
        ("rpc-open", {"req_bytes": 32, "window_ns": 5}),
    ])
    def test_kinds_fence_the_model_fields_they_do_not_build(
            self, base, overrides):
        field = list(overrides)[-1]
        scenario = PRESETS[base]
        with pytest.raises(TypeError, match=field):
            replace(scenario, **overrides)
        with pytest.raises(ValueError, match=re.escape(
                f"unknown scenario fields: ['{field}'] "
                f"(kind {scenario.kind!r} has no such field)")):
            Scenario.from_dict({**asdict(scenario), **overrides})

    def test_another_kinds_default_is_refused(self):
        """A field the kind lacks is refused even at its default in the
        kind that has it: the spec names a knob this run would never read.
        ``perfbench/specs`` name only their own kind's fields."""
        with pytest.raises(ValueError, match=re.escape(
                "['arrival', 'pipeline', 'servers'] (kind 'halo'")):
            Scenario.from_dict({"name": "x", "kind": "halo", "arrival": "open",
                                "servers": 1, "pipeline": "rollup"})
        for path in sorted(regen.SPEC_DIR.glob("*.json")):
            Scenario.from_dict(json.loads(path.read_text()))

    def test_run_length_is_every_kinds_to_scale(self):
        """``perfbench`` scales ``n_requests`` and ``iterations`` on every
        spec without asking its kind: both are base fields."""
        replace(PRESETS["mpi-halo"], n_requests=4, iterations=4)
        replace(PRESETS["rpc-open"], n_requests=4, iterations=4)

    @pytest.mark.parametrize("base, overrides", [
        ("rpc-open", {"policy": "bogus"}),
        ("rpc-partitioned", {"policy": "bogus"}),
        ("rpc-open", {"fm_version": 3}),
        ("mpi-halo", {"n_nodes": 1}),
        ("rdma-pingpong", {"n_nodes": 1}),
        # A microbenchmark is two nodes, a known pattern and at least one
        # message or round trip of at least 0 bytes (every pattern
        # completes at 0 bytes), and runs to completion.
        ("journey-fm2", {"n_nodes": 4}),
        ("stream-fm2", {"pattern": "fm-broadcast"}),
        ("stream-fm2", {"n_requests": 0}),
        ("pingpong-fm2", {"iterations": 0}),
        ("stream-fm2", {"msg_bytes": -4}),
        ("journey-fm1", {"until_ns": 1_000_000}),
        # A one-sided put and a NIC broadcast move at least one byte, on
        # the FM 2.x NIC firmware, as does a NIC barrier; the two-node
        # patterns run on two nodes, and the pairing ones on an even count.
        ("stream-fm2", {"pattern": "rdma-stream", "msg_bytes": 0}),
        ("pingpong-fm2", {"pattern": "nic-bcast", "msg_bytes": 0}),
        ("stream-fm2", {"pattern": "rdma-stream", "fm_version": 1}),
        ("pingpong-fm2", {"pattern": "nic-barrier", "n_nodes": 4,
                          "fm_version": 1}),
        ("pingpong-fm2", {"pattern": "nic-bcast", "fm_version": 1}),
        ("stream-fm2", {"pattern": "rdma-stream", "n_nodes": 4}),
        ("stream-fm1", {"pattern": "link-stream", "n_nodes": 4}),
        ("stream-fm2", {"pattern": "pair-streams", "n_nodes": 3}),
        ("pingpong-fm2", {"pattern": "chain-pingpong", "n_nodes": 5}),
        # So does the put ping-pong.
        ("rdma-pingpong", {"msg_bytes": 0}),
        ("rdma-pingpong", {"fm_version": 1}),
        # An MPI binding is a BINDINGS name of the scenario's FM
        # generation, on a kind or pattern that builds an MPI world.
        ("mpi-halo", {"mpi_binding": "no-copies"}),
        ("mpi-stream-fm2", {"fm_version": 1, "mpi_binding": "no-gather"}),
        ("mpi-halo", {"mpi_binding": "fm1"}),
        ("stream-fm2", {"mpi_binding": "fm2"}),
        ("pingpong-fm2", {"pattern": "nic-barrier", "n_nodes": 4,
                          "mpi_binding": "fm2"}),
        # Every kind runs at least one request, record or round.
        ("rpc-open", {"n_requests": 0}),
        ("rpc-closed", {"n_requests": -1}),
        ("dataflow-rollup", {"n_requests": 0}),
        ("dataflow-scatter-gather", {"n_requests": 0}),
        ("mpi-halo", {"iterations": 0}),
        ("mpi-allreduce", {"iterations": 0}),
    ])
    def test_bad_values_fail_before_anything_is_built(self, base, overrides):
        field = list(overrides)[-1]
        with pytest.raises(ValueError, match=field):
            replace(PRESETS[base], **overrides)

    def test_a_run_of_no_length_is_a_usage_error(self, capsys):
        """Refused at parse time, as a microbenchmark's is: exit 2 with
        the validation message, no cluster built and no traceback."""
        from repro.workloads.run import main

        with pytest.raises(SystemExit) as exit_info:
            main(["mpi-halo", "--set", "iterations=0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "iterations must be >= 1, got 0" in err
        assert "Traceback" not in err
