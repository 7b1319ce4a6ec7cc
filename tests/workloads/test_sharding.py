"""Sharded services: ring placement, balancers, per-shard accounting."""

from __future__ import annotations

import itertools

import pytest

from repro.workloads.rpc_kind import RpcScenario
from repro.workloads.runner import Scenario, run_scenario
from repro.workloads.sharding import (
    BALANCER_NAMES,
    ConsistentHash,
    HashRing,
    LeastPending,
    RoundRobin,
    ShardDirectory,
    key_stream,
    make_balancer,
)


def sharded(servers=4, clients=3, **overrides):
    spec = dict(
        name="sh", kind="rpc", n_nodes=servers + clients, servers=servers,
        arrival="open", rate_rps=40_000.0, n_requests=25,
        req_bytes=128, resp_bytes=128, work_ns=0, seed=5,
    )
    spec.update(overrides)
    return RpcScenario(**spec)


class TestHashRing:
    def test_lookup_is_stable_and_in_range(self):
        ring = HashRing(4, vnodes=64)
        owners = [ring.lookup(k) for k in range(1000)]
        assert set(owners) <= set(range(4))
        assert owners == [ring.lookup(k) for k in range(1000)]

    def test_every_shard_owns_some_keys(self):
        ring = HashRing(4, vnodes=64)
        owners = {ring.lookup(k) for k in range(1000)}
        assert owners == set(range(4))

    def test_adding_a_shard_moves_only_some_keys(self):
        # The consistent-hashing property: growing the ring re-homes a
        # fraction of the keyspace, not all of it.
        before = HashRing(4, vnodes=64)
        after = HashRing(5, vnodes=64)
        keys = range(2000)
        moved = sum(before.lookup(k) != after.lookup(k) for k in keys)
        assert 0 < moved < len(keys) // 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)

    def test_successors_start_at_the_primary_and_are_distinct(self):
        ring = HashRing(4, vnodes=64)
        for key in range(500):
            replicas = ring.successors(key, 3)
            assert replicas[0] == ring.lookup(key)
            assert len(set(replicas)) == 3
            assert ring.successors(key, 1) == (ring.lookup(key),)

    def test_successors_cover_the_whole_ring_at_full_r(self):
        ring = HashRing(4, vnodes=64)
        assert sorted(ring.successors(7, 4)) == [0, 1, 2, 3]

    def test_successors_rejects_bad_r(self):
        ring = HashRing(3)
        with pytest.raises(ValueError):
            ring.successors(0, 0)
        with pytest.raises(ValueError):
            ring.successors(0, 4)


class TestBalancers:
    def test_round_robin_cycles(self):
        balancer = RoundRobin(3)
        assert [balancer.pick(0) for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_least_pending_picks_emptiest_with_lowest_index_ties(self):
        balancer = LeastPending(3)
        assert balancer.pick(0) == 0          # all tied -> lowest index
        balancer.note_issued(0)
        balancer.note_issued(1)
        assert balancer.pick(0) == 2
        balancer.note_issued(2)
        balancer.note_resolved(1)
        assert balancer.pick(0) == 1

    def test_static_ignores_load(self):
        balancer = ConsistentHash(4)
        shard = balancer.pick(42)
        for other in range(4):
            if other != shard:
                balancer.note_issued(other)
        assert balancer.pick(42) == shard

    def test_resolve_without_issue_fails_loudly(self):
        balancer = LeastPending(2)
        with pytest.raises(RuntimeError):
            balancer.note_resolved(0)

    def test_make_balancer_names(self):
        for name in BALANCER_NAMES:
            assert make_balancer(name, 4).n_shards == 4
        with pytest.raises(ValueError):
            make_balancer("random", 4)


class TestKeyStream:
    def test_deterministic_per_client(self):
        a = list(itertools.islice(key_stream(3, "c1", 100), 50))
        b = list(itertools.islice(key_stream(3, "c1", 100), 50))
        c = list(itertools.islice(key_stream(3, "c2", 100), 50))
        assert a == b
        assert a != c
        assert all(0 <= k < 100 for k in a)

    def test_skew_concentrates_mass_on_low_ranks(self):
        uniform = list(itertools.islice(key_stream(3, "c", 64, 0.0), 400))
        skewed = list(itertools.islice(key_stream(3, "c", 64, 1.5), 400))
        top = range(8)
        assert (sum(k in top for k in skewed)
                > 2 * sum(k in top for k in uniform))

    def test_zipf_cdf_draws_match_the_old_choice_stream(self):
        # The precomputed-CDF draw must be draw-for-draw identical to the
        # ``rng.choice(n, p=p)`` it replaced (Generator.choice internally
        # cumsums p, renormalises by the last partial sum, and
        # searchsorts one uniform variate — exactly what key_stream now
        # precomputes), so every historical skewed report stays
        # byte-identical.
        import numpy as np

        from repro.workloads.arrivals import client_rng

        n_keys, skew = 96, 1.3
        new = list(itertools.islice(
            key_stream(9, "pin", n_keys, skew), 500))
        rng = client_rng(9, "keys:pin")
        weights = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** skew
        p = weights / weights.sum()
        old = [int(rng.choice(n_keys, p=p)) for _ in range(500)]
        assert new == old


class TestShardedRuns:
    def test_every_request_resolves_and_shards_sum_to_aggregate(self):
        results = run_scenario(sharded())["results"]
        assert results["completed"] == results["sent"] == 75
        shards = results["shards"]
        assert len(shards) == 4
        assert sum(s["completed"] for s in shards) == results["completed"]
        assert sum(s["sent"] for s in shards) == results["sent"]
        assert results["imbalance"] >= 1.0

    @pytest.mark.parametrize("balancer", BALANCER_NAMES)
    def test_all_balancers_complete_the_workload(self, balancer):
        results = run_scenario(sharded(balancer=balancer))["results"]
        assert results["completed"] == results["sent"]

    def test_round_robin_spreads_uniformly(self):
        results = run_scenario(sharded(balancer="round_robin"))["results"]
        counts = [s["sent"] for s in results["shards"]]
        assert max(counts) - min(counts) <= len(counts)

    def test_skewed_static_is_more_imbalanced_than_least_pending(self):
        static = run_scenario(
            sharded(balancer="static", key_skew=1.5))["results"]
        least = run_scenario(
            sharded(balancer="least_pending", key_skew=1.5))["results"]
        assert static["imbalance"] > least["imbalance"]

    def test_per_shard_policies(self):
        # Shard 0 sheds under pressure, the rest queue: only shard 0
        # reports shed drops, and nothing is silently lost.
        results = run_scenario(sharded(
            servers=2, clients=4, rate_rps=150_000.0, n_requests=30,
            work_ns=20_000, workers=1, queue_capacity=2,
            balancer="round_robin",
            shard_policies=("shed", "queue")))["results"]
        shed_shard, queue_shard = results["shards"]
        assert shed_shard["drops"]["shed"] > 0
        assert queue_shard["drops"]["total"] == 0
        assert (results["completed"] + results["drops"]["total"]
                == results["sent"])

    def test_a_one_server_spec_applies_its_shard_policy(self):
        # A single server is shard 0 of a one-shard service, so its
        # ``shard_policies`` entry overrides ``policy`` as on any shard
        # (it used to be validated and then ignored: 0 shed).
        from dataclasses import replace
        from repro.workloads.presets import PRESETS
        results = run_scenario(replace(
            PRESETS["rpc-incast"], policy="queue",
            shard_policies=("shed",)))["results"]
        assert results["drops"]["shed"] > 0
        assert (results["completed"] + results["drops"]["total"]
                == results["sent"])

    def test_sharded_rerun_is_byte_identical(self):
        from repro.obs.export import dumps_deterministic
        spec = sharded(balancer="least_pending", key_skew=1.0)
        assert (dumps_deterministic(run_scenario(spec))
                == dumps_deterministic(run_scenario(spec)))

    def test_observer_federates_per_shard_counters(self):
        # An observer adopting the stats' registry sees the shard bags.
        from repro.cluster.cluster import Cluster
        from repro.configs import PPRO_FM2
        from repro.obs.observer import Observer
        from repro.workloads.rpc import RpcClient, RpcEndpoint, RpcServer
        from repro.workloads.stats import WorkloadStats
        from repro.workloads.arrivals import ClosedLoop

        cluster = Cluster(3, machine=PPRO_FM2, fm_version=2)
        stats = WorkloadStats(cluster.env, name="w", n_shards=2)
        observer = cluster.observe(Observer(stats.metrics))
        endpoints = [RpcEndpoint(node, stats) for node in cluster.nodes]
        # Shards started the way RpcKind.wire does.
        for shard, endpoint in enumerate(endpoints[:2]):
            RpcServer(endpoint, stats, shard=shard).start()
        service = ShardDirectory([0, 1])
        client = RpcClient(
            endpoints[2], service, make_balancer("round_robin", 2),
            key_stream(1, "c", 16), arrivals=ClosedLoop(0), seed=1,
            n_requests=8)
        cluster.run([None, None, lambda node: client.run()])
        assert observer.metrics.counters("w.shard0")["completed"] == 4
        assert observer.metrics.counters("w.shard1")["completed"] == 4
        assert observer.metrics.counters("w")["completed"] == 8

    def test_observed_run_reports_into_the_stats_registry(self):
        from repro.workloads.runner import execute_scenario
        outcome = execute_scenario(sharded(servers=2, clients=2),
                                   observe=True)
        metrics, stats = outcome.stats.metrics, outcome.stats
        assert outcome.observer.metrics is metrics
        for i, shard in enumerate(stats.shards):
            assert metrics.counters(f"{stats.name}.shard{i}") is shard.counters
        counters = metrics.as_dict()["counters"]
        assert (counters[f"{stats.name}.shard0"]["completed"]
                + counters[f"{stats.name}.shard1"]["completed"]
                == counters[stats.name]["completed"] > 0)
        assert metrics.histograms(f"{stats.name}.queue_depth")

    def test_unobserved_run_keeps_no_queue_depth_samples(self):
        from repro.workloads.presets import PRESETS
        from repro.workloads.runner import execute_scenario
        stats = execute_scenario(PRESETS["rpc-sharded"]).stats
        assert stats.queue_depth_max > 0
        assert not [h for h in stats.metrics.histograms()
                    if h.name.endswith(".queue_depth")]

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            sharded(balancer="weighted")
        with pytest.raises(ValueError):
            sharded(servers=5, clients=0)        # no client left
        with pytest.raises(ValueError):
            sharded(shard_policies=("queue",))   # wrong length
        with pytest.raises(ValueError):
            sharded(shard_policies=("queue", "lifo", "queue", "queue"))

    def test_shard_policies_round_trips_from_json_lists(self):
        spec = Scenario.from_dict({
            "name": "j", "kind": "rpc", "n_nodes": 4, "servers": 2,
            "shard_policies": ["queue", "shed"],
        })
        assert spec.shard_policies == ("queue", "shed")


class TestOnResolvedRegistration:
    def test_second_issuer_on_one_endpoint_fails_loudly(self):
        # Regression: the client's __init__ used to overwrite
        # endpoint.on_resolved unconditionally — a second client (or a
        # prober) sharing the endpoint silently corrupted the first
        # balancer's in-flight view.  Now registration raises.
        from repro.cluster.cluster import Cluster
        from repro.configs import PPRO_FM2
        from repro.workloads.arrivals import ClosedLoop
        from repro.workloads.rpc import RpcClient, RpcEndpoint
        from repro.workloads.stats import WorkloadStats

        cluster = Cluster(3, machine=PPRO_FM2, fm_version=2)
        stats = WorkloadStats(cluster.env, name="w", n_shards=2)
        endpoints = [RpcEndpoint(node, stats) for node in cluster.nodes]
        directory = ShardDirectory([0, 1])

        def build():
            return RpcClient(
                endpoints[2], directory, make_balancer("round_robin", 2),
                key_stream(1, "c", 16), arrivals=ClosedLoop(0), seed=1,
                n_requests=4)

        build()
        with pytest.raises(RuntimeError, match="already has an on_resolved"):
            build()


class TestShardDirectory:
    def test_directory_carries_placement(self):
        directory = ShardDirectory([0, 4, 8])
        assert directory.n_shards == 3
        assert directory.shard_nodes == [0, 4, 8]

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardDirectory([])
        with pytest.raises(ValueError):
            ShardDirectory([1, 2, 1])
