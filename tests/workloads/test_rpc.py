"""The RPC service layer: policies, both FM generations, determinism."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.faults import FaultPlan
from repro.faults.plan import NicStall
from repro.workloads.presets import PRESETS
from repro.workloads.apps import AllreduceScenario, HaloScenario
from repro.workloads.rpc_kind import RpcScenario
from repro.workloads.runner import Scenario, execute_scenario, run_scenario
from repro.workloads.sharding import RoundRobin, ShardDirectory


def one_shard() -> tuple:
    """A one-shard service on node 0: directory, balancer, keys."""
    return ShardDirectory([0]), RoundRobin(1), itertools.repeat(0)


def overload(policy, **overrides):
    """An open-loop scenario offering far more than one worker can serve."""
    spec = dict(
        name=f"overload-{policy}", kind="rpc", n_nodes=3,
        arrival="open", rate_rps=200_000.0, n_requests=30,
        work_ns=20_000, workers=1, queue_capacity=4, policy=policy,
    )
    spec.update(overrides)
    return RpcScenario(**spec)


class TestRpcBasics:
    def test_closed_loop_completes_every_request(self):
        report = run_scenario(RpcScenario(
            name="cl", kind="rpc", n_nodes=3, arrival="closed",
            think_ns=5_000, n_requests=20))
        results = report["results"]
        assert results["sent"] == 40          # 2 clients x 20
        assert results["completed"] == 40
        assert results["drops"]["total"] == 0
        assert results["latency"]["p50_ns"] > 0
        assert results["throughput_rps"] > 0

    def test_fm1_transport_works(self):
        report = run_scenario(RpcScenario(
            name="fm1", kind="rpc", fm_version=1, n_nodes=2,
            arrival="closed", n_requests=15))
        assert report["results"]["completed"] == 15

    def test_fm1_send_assembly_copy_is_metered(self):
        # FM 1.x sends a contiguous message, so every request and response
        # is first assembled into one buffer: a copy the meter must see.
        outcome = execute_scenario(replace(
            PRESETS["rpc-open"], fm_version=1, machine="sparc"))
        assembled = [node.cpu.meter.bytes_for("rpc.send_assembly")
                     for node in outcome.cluster.nodes]
        # Three clients send 60 requests of 88 B; the server answers all.
        assert assembled == [13_680, 5_280, 5_280, 5_280]

    def test_fm2_sustains_higher_delivered_load_than_fm1(self):
        # Same machine, same saturating traffic: FM 1.x pays the assembly
        # copy, fixed 128-byte packets, and extract-serialised handlers, so
        # its delivered capacity and tail latency are both worse (§3 vs §4).
        base = dict(name="x", kind="rpc", n_nodes=3, arrival="open",
                    rate_rps=100_000.0, n_requests=30, req_bytes=1024,
                    resp_bytes=1024, work_ns=0)
        fm1 = run_scenario(RpcScenario(fm_version=1, **base))["results"]
        fm2 = run_scenario(RpcScenario(fm_version=2, **base))["results"]
        assert fm2["throughput_rps"] > 1.2 * fm1["throughput_rps"]
        assert fm2["latency"]["p99_ns"] < fm1["latency"]["p99_ns"]


class TestPolicies:
    def test_queue_policy_backpressures_without_dropping(self):
        results = run_scenario(overload("queue"))["results"]
        assert results["completed"] == results["sent"] == 60
        assert results["drops"]["total"] == 0
        # Backpressure is visible as queueing delay at the server.
        assert results["queue_depth_max"] >= 3

    def test_shed_policy_bounds_latency_by_dropping(self):
        queue = run_scenario(overload("queue"))["results"]
        shed = run_scenario(overload("shed"))["results"]
        assert shed["drops"]["shed"] > 0
        assert shed["completed"] + shed["drops"]["shed"] == shed["sent"]
        # What shedding buys: accepted requests wait in a never-full queue.
        assert shed["latency"]["p99_ns"] < queue["latency"]["p99_ns"]

    def test_deadline_policy_expires_stale_requests(self):
        results = run_scenario(
            overload("deadline", deadline_ns=100_000))["results"]
        assert results["drops"]["expired"] > 0
        assert (results["completed"] + results["drops"]["expired"]
                == results["sent"])

    def test_bad_policy_rejected(self):
        from repro.workloads.rpc import RpcServer  # noqa: F401
        with pytest.raises(ValueError):
            run_scenario(overload("lifo"))


class TestDeterminism:
    def test_same_scenario_same_report(self):
        spec = RpcScenario(name="d", kind="rpc", n_nodes=3, arrival="open",
                           rate_rps=30_000.0, n_requests=25)
        assert run_scenario(spec) == run_scenario(spec)

    def test_observer_does_not_change_results(self):
        spec = overload("shed")
        plain = run_scenario(spec)
        observed = run_scenario(spec, observe=True)
        assert plain == observed

    def test_empty_fault_plan_is_bit_identical(self):
        from repro.faults import FaultPlan
        spec = RpcScenario(name="f", kind="rpc", n_nodes=2, arrival="closed",
                           n_requests=10)
        plain = run_scenario(spec)
        faulted = run_scenario(spec, plan=FaultPlan())
        assert plain["results"] == faulted["results"]
        assert faulted["faults"]["events"] == 0

    def test_nic_stall_plan_slows_the_service(self):
        from repro.faults import FaultPlan
        from repro.faults.plan import NicStall
        spec = RpcScenario(name="f", kind="rpc", n_nodes=2, arrival="closed",
                           n_requests=15)
        plan = FaultPlan(seed=3, episodes=(
            NicStall(node=0, side="rx", extra_ns=3_000),))
        plain = run_scenario(spec)
        faulted = run_scenario(spec, plan=plan)
        assert (faulted["results"]["latency"]["p50_ns"]
                > plain["results"]["latency"]["p50_ns"])
        assert faulted["results"]["completed"] == 15


class TestStaleResponses:
    def test_late_responses_count_stale_and_requests_resolve_once(self):
        """The deadline policy racing an abandoning client.

        Every request is abandoned before its (slow, possibly expired)
        response lands, so late responses must hit
        ``RpcEndpoint.stale_responses`` — and client-side accounting must
        still resolve each request exactly once (as ``abandoned``), never
        double-counting the stale response as a completion or drop.
        """
        from repro.cluster.cluster import Cluster
        from repro.configs import PPRO_FM2
        from repro.workloads.arrivals import ClosedLoop
        from repro.workloads.rpc import RpcClient, RpcEndpoint, RpcServer
        from repro.workloads.stats import WorkloadStats

        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        stats = WorkloadStats(cluster.env, name="stale")
        endpoints = [RpcEndpoint(node, stats) for node in cluster.nodes]
        server = RpcServer(endpoints[0], stats, workers=1,
                           queue_capacity=8, policy="deadline")
        server.start()
        # 50us of service against a 30us deadline and a 12us abandonment:
        # the client walks away long before any response (OK for the first
        # request, EXPIRED for queued ones) can land — but keeps issuing,
        # so its pump is still extracting when the late responses arrive.
        # (Abandon budgets anchor at send time, so the client's lifetime
        # is exactly n_requests x 12us; 12us keeps it past the ~57us the
        # first late response needs to come back.)
        client = RpcClient(endpoints[1], *one_shard(),
                           arrivals=ClosedLoop(0), seed=2, n_requests=8,
                           work_ns=50_000, deadline_ns=30_000,
                           abandon_after_ns=12_000)
        cluster.run([None, lambda node: client.run()])

        endpoint = endpoints[1]
        assert endpoint.stale_responses >= 1
        assert not endpoint.pending          # nothing leaked
        counters = stats.counters
        assert counters["sent"] == 8
        assert counters["abandoned"] == 8
        # Exactly-once accounting: a stale response must not also count as
        # a completion, shed, or expiry.
        assert counters["completed"] == 0
        assert counters["shed"] == 0
        assert counters["expired"] == 0
        assert stats.latency.count == 0
        assert (counters["completed"] + stats.drops()
                == counters["sent"])


    def test_failed_request_event_reaches_the_awaiting_client(self):
        """A request event that *fails* inside the abandon window is defused
        once and thrown into ``_await`` (as the ``AnyOf`` it replaced did);
        the client's program can catch it and the run goes on."""
        from repro.cluster.cluster import Cluster
        from repro.configs import PPRO_FM2
        from repro.workloads.arrivals import ClosedLoop
        from repro.workloads.rpc import RpcClient, RpcEndpoint
        from repro.workloads.stats import WorkloadStats

        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        env = cluster.env
        stats = WorkloadStats(env, name="failed")
        endpoint = RpcEndpoint(cluster.node(1), stats)
        client = RpcClient(endpoint, *one_shard(), arrivals=ClosedLoop(0),
                           seed=2, n_requests=1, abandon_after_ns=12_000)
        caught = []

        def program(node):
            request = env.event()
            env.timeout(3_000).callbacks.append(
                lambda _timer: request.fail(ConnectionError("peer reset")))
            try:
                yield from client._await(7, request, env.now)
            except ConnectionError as exc:
                caught.append((env.now, str(exc)))
            yield env.timeout(20_000)        # past the cap: it wakes nobody

        cluster.run([None, program])
        assert caught == [(3_000, "peer reset")]
        assert cluster.now == 23_000


class TestAbandonAnchoring:
    def test_open_loop_drain_abandons_on_send_anchored_budgets(self):
        """Regression: the abandon budget anchors at *send* time.

        The drain loop used to grant every outstanding request a fresh
        full ``abandon_after_ns`` from the moment the loop reached it, so
        under overload abandonment ran serially — total drain time grew
        as ~n x budget and late requests effectively never abandoned.
        Anchored correctly, every request whose budget already expired
        abandons the instant the drain reaches it, and the whole run ends
        within one budget of the last send.
        """
        from repro.cluster.cluster import Cluster
        from repro.configs import PPRO_FM2
        from repro.workloads.arrivals import OpenLoop
        from repro.workloads.rpc import RpcClient, RpcEndpoint, RpcServer
        from repro.workloads.stats import WorkloadStats

        cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
        stats = WorkloadStats(cluster.env, name="anchor")
        endpoints = [RpcEndpoint(node, stats) for node in cluster.nodes]
        server = RpcServer(endpoints[0], stats, workers=1,
                           queue_capacity=16, policy="queue")
        server.start()
        # 10 sends ~10us apart against 200us of service: by drain time
        # every budget (50us) is long expired.
        client = RpcClient(endpoints[1], *one_shard(),
                           arrivals=OpenLoop(100_000.0), seed=3,
                           n_requests=10, work_ns=200_000,
                           abandon_after_ns=50_000)
        cluster.run([None, lambda node: client.run()])

        counters = stats.counters
        assert counters["abandoned"] == 10
        assert counters["completed"] == 0
        assert not endpoints[1].pending
        # Send-anchored: the run ends within one budget of the last send
        # (~100us of sends + 50us), not after ten serial budgets (~600us).
        assert cluster.env.now < 300_000


class TestMpiKinds:
    def test_halo_records_every_iteration(self):
        results = run_scenario(HaloScenario(
            name="h", kind="halo", n_nodes=4, iterations=10,
            halo_bytes=128, compute_ns=1_000))["results"]
        assert results["completed"] == 10
        assert results["latency"]["p99_ns"] > 0

    def test_allreduce_verifies_the_reduction(self):
        results = run_scenario(AllreduceScenario(
            name="a", kind="allreduce", n_nodes=3, iterations=5,
            grad_bytes=1024, compute_ns=1_000))["results"]
        assert results["completed"] == 5

    def test_a_named_binding_runs_like_any_scenario(self):
        """``mpi_binding`` reaches a run that takes a fault plan and an
        observer: the observer moves no report byte, the no-gather
        ablation's assembly copy shows in the meters where the default's
        run has none, and ``fm2`` is the FM 2.x default itself."""
        halo = PRESETS["mpi-halo"]
        ablated = replace(halo, mpi_binding="no-gather")
        plan = FaultPlan(seed=1, episodes=(NicStall(
            node=1, start_ns=0, end_ns=500_000, extra_ns=5_000),))
        observed = execute_scenario(ablated, plan=plan, observe=True)
        assert observed.report == run_scenario(ablated, plan=plan)
        assert observed.report["faults"]["events"] > 0
        default = execute_scenario(halo, plan=plan)

        def assembled(outcome):
            return sum(node.cpu.meter.by_label.get(
                "ablation.send_assembly", 0)
                for node in outcome.cluster.nodes)

        assert assembled(observed) > 0 and assembled(default) == 0
        assert (run_scenario(replace(halo, mpi_binding="fm2"), plan=plan)
                ["results"] == default.report["results"])


class TestScenarioSpec:
    def test_from_dict_round_trip(self):
        from dataclasses import asdict
        scenario = PRESETS["rpc-open"]
        assert Scenario.from_dict(asdict(scenario)) == scenario

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({"name": "x", "turbo": True})

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"name": "x", "kind": "batch"})
        with pytest.raises(ValueError):
            RpcScenario(name="x", machine="cray")
        with pytest.raises(ValueError):
            RpcScenario(name="x", arrival="hyperbolic")


class TestCliRejectsBadOverrides:
    """A spec or override the scenario rejects — or a flag the CLI does
    not have — is a usage error: exit status 2 and one line, not a
    traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["rpc-open", "--partitions", "2"],
         "unrecognized arguments: --partitions 2"),
        (["rpc-open", "--set", "replicas=2"],
         "replicas > 1 needs a sharded service"),
        (["mpi-halo", "--set", "replicas=2"],
         "unknown scenario fields: ['replicas'] (kind 'halo' has no such"),
        (["stream-fm2", "--set", "msg_bytes=-4"],
         "msg_bytes must be >= 0, got -4"),
        (["stream-fm2", "--set", "n_requests=0"],
         "n_requests must be >= 1, got 0"),
    ])
    def test_exit_2_with_the_validation_message(self, argv, message, capsys):
        from repro.workloads.run import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_bad_spec_file_is_a_usage_error_too(self, tmp_path, capsys):
        from repro.workloads.run import main

        spec = tmp_path / "spec.json"
        spec.write_text('{"name": "x", "turbo": true}')
        with pytest.raises(SystemExit) as exit_info:
            main(["--spec", str(spec)])
        assert exit_info.value.code == 2
        assert "unknown scenario fields" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, flags, message", [
        ('{"kind": "rpc"}', [], "a scenario spec needs a 'name'"),
        ('{"name": "x", "n_nodes": "four"}', [],
         "n_nodes must be an int, got 'four'"),
        (None, [], "No such file or directory"),
        ("[1, 2]", [], "a scenario spec is a JSON object"),
        ('{"name": "x"}', ["-o", "no/such/dir/r.json"],
         "-o no/such/dir/r.json: no directory no/such/dir"),
        ('{"name": "x"}', ["--trace", "no/such/dir/t.json"],
         "--trace no/such/dir/t.json: no directory no/such/dir"),
        ('{"name": "x"}', ["--waterfall", "-1"],
         "--waterfall must be >= 0, got -1"),
        ('{"name": "x"}', ["--set", "nofield"],
         "argument --set: --set wants FIELD=VALUE, got 'nofield'"),
        ('{"name": "x"}', ["--set", "turbo=1"],
         "unknown scenario fields: ['turbo'] (kind 'rpc' has no such"),
        # Each of these used to construct and then fail in a built cluster.
        ('{"name": "x", "abandon_after_ns": "5"}', [],
         "abandon_after_ns must be an int or null, got '5'"),
        ('{"name": "x", "until_ns": "100"}', [],
         "until_ns must be an int or null, got '100'"),
        ('{"name": "x", "kind": "halo", "until_ns": -5}', [],
         "until_ns must be >= 1, got -5"),
        ('{"name": "x", "extract_budget": "7"}', [],
         "unknown scenario fields: ['extract_budget'] (kind 'rpc' has no"),
        ('{"name": "x", "n_requests": 1.5}', [],
         "n_requests must be an int, got 1.5"),
        ('{"name": "x", "slo_latency_p99_ns": "5", '
         '"sample_interval_ns": 10}', [],
         "slo_latency_p99_ns must be an int or null, got '5'"),
    ])
    def test_every_usage_error_is_found_before_the_run(
            self, spec, flags, message, tmp_path, capsys, monkeypatch):
        from repro.workloads import run

        def never(*args, **kwargs):
            raise AssertionError("the scenario ran")
        monkeypatch.setattr(run, "execute_scenario", never)
        monkeypatch.chdir(tmp_path)
        if spec is not None:
            (tmp_path / "spec.json").write_text(spec)
        with pytest.raises(SystemExit) as exit_info:
            run.main(["--spec", "spec.json", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "no").exists()

    def test_a_spec_still_carrying_partitions_names_the_field(
            self, tmp_path, capsys):
        from repro.workloads.run import main

        spec = tmp_path / "spec.json"
        spec.write_text('{"name": "x", "partition_groups": 2, '
                        '"partitions": 2}')
        with pytest.raises(SystemExit) as exit_info:
            main(["--spec", str(spec)])
        assert exit_info.value.code == 2
        assert "unknown scenario fields: ['partitions']" \
            in capsys.readouterr().err
