"""Extension: shard scaling and client-side balancer comparison.

The paper's multi-cluster outlook (§6) stops at a single server; these
benchmarks ask what the FM 2.x interface buys once a service is *sharded*
across several server nodes behind one client-facing API.  Two questions:

1. **Scaling** — does aggregate saturated capacity grow near-linearly as
   the service goes from 1 to 4 shards, and does FM 2.x keep its capacity
   lead over FM 1.x at every shard count?  (It should: each shard's
   gather-interface savings are independent, so they sum.)

2. **Placement** — under a skewed key popularity, how much does a static
   consistent-hash placement give up against a load-aware least-pending
   balancer, in throughput, tail latency, and per-shard imbalance?
"""

from __future__ import annotations

from conftest import run_once
from repro.bench.figures import FIGURES, shard_scenario
from repro.workloads.runner import run_scenario


class TestShardScaling:
    def test_fm2_scales_near_linearly_and_beats_fm1(self, benchmark, show):
        result = run_once(benchmark, FIGURES["ext_sharding"])
        show(result.table)
        v = result.values
        speedup = v["speedup"]
        # Near-linear knee scaling: 4 shards deliver >=3x one shard.
        assert speedup >= 3.0, f"sub-linear shard scaling: {speedup:.2f}x"
        # The layering advantage survives sharding at every point.
        for n in (1, 2, 4):
            assert (v[f"FM 2.x, {n} shard(s)/rps"]
                    > v[f"FM 1.x, {n} shard(s)/rps"])

    def test_sweep_point_reruns_bit_identical(self, benchmark):
        def pair():
            return (run_scenario(shard_scenario(2, 4)),
                    run_scenario(shard_scenario(2, 4)))
        first, second = benchmark.pedantic(pair, rounds=1, iterations=1)
        assert first == second


class TestBalancerComparison:
    def test_skewed_keys_punish_static_placement(self, benchmark):
        # Zipf(1.2) key popularity: consistent hashing pins the hot keys
        # to whichever shards own them; least-pending just routes around
        # the heat.  Measure the cost of obliviousness.
        result = run_once(benchmark, FIGURES["ext_sharding"])
        static, least = ({metric: result.values[f"{name}, Zipf 1.2/{metric}"]
                          for metric in ("rps", "p99_ns", "imbalance")}
                         for name in ("static", "least_pending"))
        # The imbalance penalty is measurable and it costs throughput
        # and tail latency, not just aesthetics.
        assert static["imbalance"] > least["imbalance"]
        assert static["rps"] < least["rps"]
        assert static["p99_ns"] > least["p99_ns"]
        # Load-aware routing keeps shards within a few percent of even.
        assert least["imbalance"] < 1.15

    def test_uniform_keys_leave_little_on_the_table(self, benchmark):
        # Without skew the static ring is already close to even: the gap
        # to least-pending shrinks to noise-level percentages.
        v = run_once(benchmark, FIGURES["ext_sharding"]).values
        assert (v["static, uniform/rps"]
                > 0.8 * v["least_pending, uniform/rps"])
