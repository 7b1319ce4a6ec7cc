"""Replication & failover: placement, health, exactly-once retries."""

from __future__ import annotations

import itertools

import pytest

from repro.cluster.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.faults import FaultPlan
from repro.faults.plan import NicStall
from repro.workloads.arrivals import ClosedLoop
from repro.workloads.replication import (
    ReplicatedClient,
    ReplicatedDirectory,
    ShardHealth,
    ShardSupervisor,
)
from repro.workloads.rpc import RpcEndpoint, RpcServer
from repro.workloads.presets import PRESETS
from repro.workloads.rpc_kind import RpcScenario
from repro.workloads.runner import run_scenario
from repro.workloads.sharding import make_balancer
from repro.workloads.stats import WorkloadStats


def build_cluster(n_shards=2, plan=None, n_extra=1):
    """``n_shards`` server nodes + ``n_extra`` client/supervisor nodes."""
    cluster = Cluster(n_shards + n_extra, machine=PPRO_FM2, fm_version=2)
    if plan is not None:
        cluster.inject_faults(plan)
    stats = WorkloadStats(cluster.env, name="rep", n_shards=n_shards)
    endpoints = [RpcEndpoint(node, stats) for node in cluster.nodes]
    return cluster, stats, endpoints


def start_shards(endpoints, stats):
    """One single-worker shard per endpoint, started the way
    ``RpcKind.wire`` does; returns the directory clients route by."""
    for shard, endpoint in enumerate(endpoints):
        RpcServer(endpoint, stats, workers=1, shard=shard).start()
    nodes = [endpoint.node.node_id for endpoint in endpoints]
    return ReplicatedDirectory(nodes,
                               ShardHealth(endpoints[0].env, len(nodes)))


def build_client(endpoints, service, node, keys, **overrides):
    spec = dict(arrivals=ClosedLoop(0), seed=7, n_requests=4,
                failover_timeout_ns=50_000)
    spec.update(overrides)
    return ReplicatedClient(
        endpoints[node], service,
        make_balancer("static", service.n_shards), iter(keys), **spec)


def key_with_primary(service, primary: int) -> int:
    """A key whose replica set starts at ``primary``."""
    for key in range(10_000):
        if service.replica_set(key)[0] == primary:
            return key
    raise AssertionError("no key found")  # pragma: no cover


class TestShardHealth:
    def test_edges_are_logged_and_idempotent(self):
        cluster, _stats, _eps = build_cluster()
        health = ShardHealth(cluster.env, 3)
        assert health.is_up(1)
        assert health.mark_down(1, "probe_timeout")
        assert not health.mark_down(1, "probe_timeout")   # no double edge
        assert not health.is_up(1)
        assert health.mark_up(1, "probe_ok")
        assert not health.mark_up(1, "probe_ok")
        assert health.transitions == [
            (0, 1, "down", "probe_timeout"), (0, 1, "up", "probe_ok")]

    def test_first_live_prefers_order_and_falls_back_to_primary(self):
        cluster, _stats, _eps = build_cluster()
        health = ShardHealth(cluster.env, 3)
        assert health.first_live((2, 0, 1)) == 2
        health.mark_down(2, "x")
        assert health.first_live((2, 0, 1)) == 0
        health.mark_down(0, "x")
        health.mark_down(1, "x")
        # Everything down: route to the primary and let the request's own
        # clocks decide — an outage, not a routing problem.
        assert health.first_live((2, 0, 1)) == 2


class TestReplicatedDirectory:
    def test_replica_sets_follow_the_ring(self):
        cluster, _stats, _eps = build_cluster(n_shards=4, n_extra=1)
        directory = ReplicatedDirectory(
            [0, 1, 2, 3], ShardHealth(cluster.env, 4), replicas=2)
        for key in range(300):
            replicas = directory.replica_set(key)
            assert len(replicas) == 2
            assert replicas[0] == directory.ring.lookup(key)
            assert replicas[0] != replicas[1]

    def test_validation(self):
        cluster, _stats, _eps = build_cluster()
        health = ShardHealth(cluster.env, 2)
        with pytest.raises(ValueError, match="replicas"):
            ReplicatedDirectory([0, 1], health, replicas=3)
        with pytest.raises(ValueError, match="replicas"):
            ReplicatedDirectory([0, 1], health, replicas=0)
        with pytest.raises(ValueError, match="health map"):
            ReplicatedDirectory([0, 1, 2], health)


class TestFailoverExactlyOnce:
    """The tentpole invariant: across any number of failover retries,
    every logical request resolves exactly once (``completed + drops ==
    sent``), the balancer's in-flight view returns to zero, and late
    responses from failed replicas land as stale duplicates."""

    def test_response_after_retry_counts_once(self):
        # Primary's NIC is dead for the whole run: every request to it
        # fails over and completes on the backup.
        plan = FaultPlan(seed=1, episodes=(
            NicStall(node=0, extra_ns=10**9),))
        cluster, stats, endpoints = build_cluster(plan=plan)
        service = start_shards(endpoints[:2], stats)
        key = key_with_primary(service, 0)
        client = build_client(endpoints, service, 2,
                              itertools.repeat(key), n_requests=3)
        cluster.run([None, None, lambda node: client.run()])

        counters = stats.counters
        assert counters["sent"] == 3
        assert counters["completed"] == 3
        assert counters["failover"] == 3
        assert counters["retried"] == 3
        assert stats.drops() == 0
        assert not endpoints[2].pending
        assert client.balancer.pending == [0, 0]
        # Per-shard attribution: failovers on the dead primary,
        # completions on the backup.
        assert stats.shards[0].counters["failover"] == 3
        assert stats.shards[1].counters["completed"] == 3

    def test_stale_duplicate_from_slow_primary_counts_once(self):
        # Primary is slow, not dead: its response arrives *after* the
        # failover resolved the attempt — a stale duplicate, never a
        # second completion.
        plan = FaultPlan(seed=1, episodes=(
            NicStall(node=0, extra_ns=40_000),))
        cluster, stats, endpoints = build_cluster(plan=plan)
        service = start_shards(endpoints[:2], stats)
        key = key_with_primary(service, 0)
        client = build_client(endpoints, service, 2,
                              itertools.repeat(key), n_requests=3,
                              failover_timeout_ns=25_000)
        cluster.run([None, None, lambda node: client.run()])

        counters = stats.counters
        assert endpoints[2].stale_responses >= 1
        assert counters["completed"] == 3          # once each, via backup
        assert counters["failover"] == 3
        assert stats.drops() == 0
        assert stats.latency.count == 3            # no double samples
        assert not endpoints[2].pending
        assert client.balancer.pending == [0, 0]

    def test_abandon_after_retry_when_every_replica_is_down(self):
        # Both replicas dead: failover exhausts the replica set, then the
        # plain abandon rule resolves the request as a drop — exactly one
        # drop per logical request, never one per attempt.
        plan = FaultPlan(seed=1, episodes=(
            NicStall(node=0, extra_ns=10**9),
            NicStall(node=1, extra_ns=10**9)))
        cluster, stats, endpoints = build_cluster(plan=plan)
        service = start_shards(endpoints[:2], stats)
        key = key_with_primary(service, 0)
        client = build_client(endpoints, service, 2,
                              itertools.repeat(key), n_requests=3,
                              failover_timeout_ns=30_000,
                              abandon_after_ns=30_000)
        cluster.run([None, None, lambda node: client.run()])

        counters = stats.counters
        assert counters["sent"] == 3
        assert counters["completed"] == 0
        assert counters["abandoned"] == 3
        assert counters["failover"] == 3
        assert counters["retried"] == 3
        assert counters["completed"] + stats.drops() == counters["sent"]
        assert not endpoints[2].pending
        assert client.balancer.pending == [0, 0]

    def test_health_aware_routing_skips_a_down_primary(self):
        # With the primary marked down up front, clients route straight
        # to the backup: no failover, no retry, no timeout paid.
        cluster, stats, endpoints = build_cluster()
        service = start_shards(endpoints[:2], stats)
        key = key_with_primary(service, 0)
        service.health.mark_down(0, "test")
        client = build_client(endpoints, service, 2,
                              itertools.repeat(key), n_requests=3)
        cluster.run([None, None, lambda node: client.run()])

        assert stats.counters["completed"] == 3
        assert stats.counters["failover"] == 0
        assert stats.shards[0].counters["sent"] == 0
        assert stats.shards[1].counters["sent"] == 3


def build_supervised(plan=None, sample_interval_ns=0):
    """2 server nodes + a supervisor node with its *own* stats object
    (endpoints must be built in node order, SPMD style, so the split
    happens here rather than after :func:`build_cluster`)."""
    cluster = Cluster(3, machine=PPRO_FM2, fm_version=2)
    if plan is not None:
        cluster.inject_faults(plan)
    stats = WorkloadStats(cluster.env, name="rep", n_shards=2,
                          sample_interval_ns=sample_interval_ns)
    probe_stats = WorkloadStats(cluster.env, name="probe")
    endpoints = [RpcEndpoint(node, probe_stats if node.node_id == 2
                             else stats) for node in cluster.nodes]
    return cluster, stats, endpoints


class TestShardSupervisor:
    def test_probe_timeout_marks_down_and_probe_ok_readmits(self):
        # Node 0's NIC stalls for [100us, 400us): probes time out inside
        # the window (down), succeed again after it drains (up).
        plan = FaultPlan(seed=1, episodes=(
            NicStall(node=0, start_ns=100_000, end_ns=400_000,
                     extra_ns=400_000),))
        cluster, stats, endpoints = build_supervised(plan=plan)
        service = start_shards(endpoints[:2], stats)
        supervisor = ShardSupervisor(
            endpoints[2], service,
            probe_interval_ns=50_000, probe_timeout_ns=40_000)
        supervisor.start()

        def clock(node):
            yield cluster.env.timeout(900_000)

        cluster.run([None, None, clock])
        edges = [(shard, state, reason)
                 for _t, shard, state, reason in service.health.transitions]
        assert (0, "down", "probe_timeout") in edges
        assert (0, "up", "probe_ok") in edges
        assert service.health.is_up(0)
        assert service.health.is_up(1)
        assert supervisor.probes_timed_out >= 1
        assert supervisor.probes_ok >= 2
        # Probe traffic is accounted in the supervisor's own stats, never
        # the workload's.
        assert stats.counters["sent"] == 0
        assert supervisor.probe_stats.counters["sent"] >= 3

    def test_slo_breach_marks_a_shard_down(self):
        # Workload evidence beats the next probe: per-shard drops breach
        # the availability burn rate and the supervisor reacts without a
        # single probe (interval set far past the run).
        cluster, stats, endpoints = build_supervised(
            sample_interval_ns=50_000)
        supervisor = ShardSupervisor(
            endpoints[2],
            ReplicatedDirectory([0, 1], ShardHealth(cluster.env, 2)),
            probe_interval_ns=10**9, probe_timeout_ns=50_000,
            workload_stats=stats, availability_target=0.99)
        supervisor.start()

        def traffic(node):
            env = cluster.env
            for _ in range(4):                      # two full windows
                stats.note_completed(1_000, 64, shard=1)
                stats.note_dropped("abandoned", shard=0)
                yield env.timeout(25_000)
            yield env.timeout(100_000)              # let the breach loop tick

        cluster.run([None, None, traffic])
        assert not supervisor.health.is_up(0)
        assert supervisor.health.is_up(1)
        reasons = {reason for _t, shard, _s, reason
                   in supervisor.health.transitions if shard == 0}
        assert reasons == {"slo_breach"}

    def test_validation(self):
        cluster, _stats, endpoints = build_supervised()
        endpoint = endpoints[2]
        directory = ReplicatedDirectory([0, 1], ShardHealth(cluster.env, 2))
        with pytest.raises(ValueError):
            ShardSupervisor(endpoint, directory, probe_interval_ns=0,
                            probe_timeout_ns=1)
        with pytest.raises(ValueError):
            ShardSupervisor(endpoint, directory, probe_interval_ns=1,
                            probe_timeout_ns=0)
        supervisor = ShardSupervisor(endpoint, directory,
                                     probe_interval_ns=1,
                                     probe_timeout_ns=1)
        supervisor.start()
        with pytest.raises(RuntimeError):
            supervisor.start()


class TestReplicatedScenarios:
    def test_failover_preset_stays_available_through_the_stall(self):
        # The acceptance headline: with R=2 and the supervisor on watch,
        # availability *inside the NicStall window* stays >= 0.99 while
        # the unreplicated control blacks out the stalled shard's keys.
        replicated = run_scenario(
            PRESETS["rpc-replicated-failover"],
            plan=PRESETS.rows["rpc-replicated-failover"].plan)
        blackout = run_scenario(
            PRESETS["rpc-sharded-blackout"],
            plan=PRESETS.rows["rpc-sharded-blackout"].plan)

        episode = replicated["fault_windows"]["episodes"][0]
        assert episode["availability"] >= 0.99
        control = blackout["fault_windows"]["episodes"][0]
        assert control["availability"] < 0.9
        assert control["shards"][1]["availability"] < 0.5
        # Nothing is silently lost on either side of the comparison.
        for report in (replicated, blackout):
            results = report["results"]
            assert (results["completed"] + results["drops"]["total"]
                    == results["sent"] == 750)
        # The control plane saw the episode: down on probe/SLO evidence
        # inside the window, probe-confirmed re-admission after it.
        transitions = replicated["replication"]["health_transitions"]
        down = [t for t in transitions
                if t["shard"] == 1 and t["state"] == "down"]
        up = [t for t in transitions
              if t["shard"] == 1 and t["state"] == "up"]
        assert down and up
        assert 2_000_000 <= down[0]["t_ns"] < 3_000_000
        assert up[0]["t_ns"] >= 5_000_000

    def test_replicated_rerun_is_byte_identical(self):
        from repro.obs.export import dumps_deterministic
        spec = RpcScenario(name="rep", kind="rpc", arrival="closed",
                           n_nodes=7, servers=3, replicas=2, think_ns=20_000,
                           n_requests=25, work_ns=0,
                           failover_timeout_ns=100_000,
                           probe_interval_ns=80_000)
        plan = FaultPlan(seed=2, episodes=(
            NicStall(node=2, start_ns=300_000, end_ns=900_000,
                     extra_ns=200_000),))
        assert (dumps_deterministic(run_scenario(spec, plan=plan))
                == dumps_deterministic(run_scenario(spec, plan=plan)))

    def test_unreplicated_run_has_no_supervisor(self):
        """The replication knobs are rpc fields, so every rpc report's
        ``scenario`` carries them; only a replicated run has a supervisor
        to report on."""
        report = run_scenario(RpcScenario(
            name="plain", kind="rpc", n_nodes=3, arrival="closed",
            think_ns=5_000, n_requests=5))
        assert "replication" not in report
        assert report["scenario"]["replicas"] == 1

    def test_replicated_report_carries_the_control_plane(self):
        report = run_scenario(RpcScenario(
            name="rep", kind="rpc", arrival="closed", n_nodes=7,
            servers=3, replicas=2, think_ns=20_000, n_requests=10,
            work_ns=0))
        assert report["scenario"]["replicas"] == 2
        replication = report["replication"]
        assert replication["replicas"] == 2
        assert replication["probes"]["sent"] >= 1
        assert replication["failovers"] == 0       # healthy run
        # Probes never pollute workload accounting: 3 workload clients
        # (nodes 3..5; node 6 is the supervisor's) x 10 requests.
        assert report["results"]["sent"] == 30

    def test_scenario_validation(self):
        def spec(**overrides):
            fields = dict(name="x", kind="rpc", n_nodes=7, servers=3,
                          replicas=2)
            fields.update(overrides)
            return RpcScenario(**fields)

        spec()                                      # the valid baseline
        spec(n_nodes=8, partition_groups=2)         # grouping is only topology
        with pytest.raises(ValueError, match="replicas"):
            spec(replicas=0)
        with pytest.raises(ValueError, match="shards available"):
            spec(replicas=4)
        with pytest.raises(ValueError, match="sharded service"):
            spec(servers=1, replicas=2)
        with pytest.raises(ValueError, match="static"):
            spec(balancer="least_pending")
        with pytest.raises(ValueError, match="supervisor"):
            spec(n_nodes=4)                        # no client beside it
        with pytest.raises(ValueError, match="population"):
            spec(population=10)
        with pytest.raises(ValueError, match="probe_interval_ns"):
            spec(probe_interval_ns=0)
        with pytest.raises(ValueError, match="failover_timeout_ns"):
            spec(failover_timeout_ns=-1)
