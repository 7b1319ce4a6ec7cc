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

import pytest

from repro.workloads.rpc_kind import RpcScenario
from repro.workloads.runner import run_scenario

#: Clients are fixed while the shard count sweeps, so offered load is
#: constant and any capacity growth is the service's, not the drivers'.
CLIENTS = 6
RATE_RPS = 80_000.0          # per client: 480k offered, saturates <4 shards
SHARD_COUNTS = (1, 2, 4)


def shard_point(fm_version: int, servers: int, balancer: str = "static",
                key_skew: float = 0.0) -> dict:
    return run_scenario(RpcScenario(
        name=f"shard-fm{fm_version}-s{servers}", kind="rpc",
        n_nodes=servers + CLIENTS, servers=servers, balancer=balancer,
        fm_version=fm_version, arrival="open", rate_rps=RATE_RPS,
        n_requests=60, req_bytes=256, resp_bytes=256, work_ns=0,
        workers=2, key_skew=key_skew, seed=7))["results"]


class TestShardScaling:
    def test_fm2_scales_near_linearly_and_beats_fm1(self, benchmark, show):
        def sweep():
            return {
                version: {n: shard_point(version, n) for n in SHARD_COUNTS}
                for version in (1, 2)
            }
        curves = benchmark.pedantic(sweep, rounds=1, iterations=1)
        lines = [f"shard scaling ({CLIENTS} clients x {RATE_RPS:.0f} rps "
                 "offered, 256B req/resp, static balancer)",
                 f"{'shards':>6} {'FM1 rps':>10} {'FM2 rps':>10} "
                 f"{'FM2 p99us':>10} {'FM2 imb':>8}"]
        for n in SHARD_COUNTS:
            fm1, fm2 = curves[1][n], curves[2][n]
            imb = fm2.get("imbalance", 1.0)
            lines.append(
                f"{n:>6} {fm1['throughput_rps']:>10.0f} "
                f"{fm2['throughput_rps']:>10.0f} "
                f"{fm2['latency']['p99_ns'] / 1000:>10.1f} {imb:>8.3f}")
        speedup = (curves[2][4]["throughput_rps"]
                   / curves[2][1]["throughput_rps"])
        lines.append(f"FM2 1->4 shard speedup: {speedup:.2f}x")
        show("\n".join(lines))
        # Near-linear knee scaling: 4 shards deliver >=3x one shard.
        assert speedup >= 3.0, f"sub-linear shard scaling: {speedup:.2f}x"
        # The layering advantage survives sharding at every point.
        for n in SHARD_COUNTS:
            assert (curves[2][n]["throughput_rps"]
                    > curves[1][n]["throughput_rps"])

    def test_sweep_point_reruns_bit_identical(self, benchmark):
        def pair():
            return shard_point(2, 4), shard_point(2, 4)
        first, second = benchmark.pedantic(pair, rounds=1, iterations=1)
        assert first == second


class TestBalancerComparison:
    def test_skewed_keys_punish_static_placement(self, benchmark, show):
        # Zipf(1.2) key popularity: consistent hashing pins the hot keys
        # to whichever shards own them; least-pending just routes around
        # the heat.  Measure the cost of obliviousness.
        def run():
            return {name: shard_point(2, 4, balancer=name, key_skew=1.2)
                    for name in ("static", "round_robin", "least_pending")}
        results = benchmark.pedantic(run, rounds=1, iterations=1)
        lines = ["balancers under Zipf(1.2) keys, 4 shards",
                 f"{'balancer':>14} {'rps':>10} {'p99us':>8} {'imb':>8}"]
        for name, r in results.items():
            lines.append(f"{name:>14} {r['throughput_rps']:>10.0f} "
                         f"{r['latency']['p99_ns'] / 1000:>8.1f} "
                         f"{r['imbalance']:>8.3f}")
        show("\n".join(lines))
        static, least = results["static"], results["least_pending"]
        # The imbalance penalty is measurable and it costs throughput
        # and tail latency, not just aesthetics.
        assert static["imbalance"] > least["imbalance"]
        assert static["throughput_rps"] < least["throughput_rps"]
        assert static["latency"]["p99_ns"] > least["latency"]["p99_ns"]
        # Load-aware routing keeps shards within a few percent of even.
        assert least["imbalance"] < 1.15

    def test_uniform_keys_leave_little_on_the_table(self, benchmark, show):
        # Without skew the static ring is already close to even: the gap
        # to least-pending shrinks to noise-level percentages.
        def run():
            return (shard_point(2, 4, balancer="static"),
                    shard_point(2, 4, balancer="least_pending"))
        static, least = benchmark.pedantic(run, rounds=1, iterations=1)
        show(f"uniform keys: static {static['throughput_rps']:.0f} rps "
             f"(imb {static['imbalance']:.3f}) vs least_pending "
             f"{least['throughput_rps']:.0f} rps "
             f"(imb {least['imbalance']:.3f})")
        assert static["throughput_rps"] > 0.8 * least["throughput_rps"]
