"""Extension: availability under faults with replicated sharded services.

The sharding benchmarks measure capacity; these measure *survival*.  A
`NicStall` episode on one shard's host blacks out that shard's key range
for its whole window — unless each key also lives on a backup shard and
clients fail over.  Two questions:

1. **Replication** — during a 3 ms NIC stall on one of four shards, what
   availability does the unreplicated service deliver inside the fault
   window, and what does R=2 with supervised failover recover?

2. **Detection latency** — how fast the supervisor notices the sick
   shard is set by its probe interval.  Sweeping it shows the trade:
   slow probes leave the stale route in the health map longer, so more
   requests pay the full failover timeout before completing elsewhere.
"""

from __future__ import annotations

from dataclasses import replace

from repro.workloads.presets import PRESET_PLANS, PRESETS
from repro.workloads.runner import run_scenario

REPLICATED = PRESETS["rpc-replicated-failover"]
BLACKOUT = PRESETS["rpc-sharded-blackout"]
PLAN = PRESET_PLANS["rpc-replicated-failover"]
FAULT_START_NS = PLAN.episodes[0].start_ns

PROBE_INTERVALS_NS = (50_000, 150_000, 600_000)


def fault_availability(report: dict) -> float:
    return report["fault_windows"]["episodes"][0]["availability"]


def detection_latency_ns(report: dict) -> int:
    downs = [t["t_ns"] for t in report["replication"]["health_transitions"]
             if t["state"] == "down"]
    return min(downs) - FAULT_START_NS


class TestAvailabilityDuringFault:
    def test_replication_recovers_the_blackout(self, benchmark, show):
        def pair():
            return (run_scenario(REPLICATED, plan=PLAN),
                    run_scenario(BLACKOUT, plan=PLAN))
        replicated, blackout = benchmark.pedantic(
            pair, rounds=1, iterations=1)
        rep_ep = replicated["fault_windows"]["episodes"][0]
        bo_ep = blackout["fault_windows"]["episodes"][0]
        lines = ["availability inside the 3ms NicStall window "
                 "(4 shards, shard 1 stalled)",
                 f"{'service':>14} {'avail':>7} {'goodput':>9} "
                 + " ".join(f"{'sh' + str(i):>6}" for i in range(4))]
        for name, ep in (("R=1", bo_ep), ("R=2", rep_ep)):
            shards = " ".join(
                f"{(s['availability'] if s['availability'] is not None else 1.0):>6.2f}"
                for s in ep["shards"])
            lines.append(f"{name:>14} {ep['availability']:>7.4f} "
                         f"{ep['goodput_mbs']:>7.2f}MB {shards}")
        rep = replicated["replication"]
        lines.append(
            f"R=2 control plane: {rep['failovers']} failovers, "
            f"detection {detection_latency_ns(replicated) / 1000:.0f}us "
            f"after fault start, {rep['probes']['sent']} probes")
        show("\n".join(lines))
        # The headline: replication keeps the window >= 99% available
        # while the unreplicated control blacks out shard 1's keys.
        assert fault_availability(replicated) >= 0.99
        assert fault_availability(blackout) < 0.9
        assert bo_ep["shards"][1]["availability"] < 0.5
        # Same totals either way: nothing is silently dropped.
        for report in (replicated, blackout):
            r = report["results"]
            assert r["completed"] + r["drops"]["total"] == r["sent"]

    def test_replicated_fault_run_reruns_bit_identical(self, benchmark):
        def pair():
            return (run_scenario(REPLICATED, plan=PLAN),
                    run_scenario(REPLICATED, plan=PLAN))
        first, second = benchmark.pedantic(pair, rounds=1, iterations=1)
        assert first == second


class TestProbeIntervalSweep:
    def test_slower_probes_cost_more_failovers(self, benchmark, show):
        def sweep():
            return {
                interval: run_scenario(
                    replace(REPLICATED, probe_interval_ns=interval),
                    plan=PLAN)
                for interval in PROBE_INTERVALS_NS
            }
        curves = benchmark.pedantic(sweep, rounds=1, iterations=1)
        lines = ["probe interval sweep (R=2, 3ms stall on shard 1)",
                 f"{'interval_us':>12} {'detect_us':>10} {'avail':>7} "
                 f"{'failovers':>10}"]
        for interval in PROBE_INTERVALS_NS:
            report = curves[interval]
            lines.append(
                f"{interval / 1000:>12.0f} "
                f"{detection_latency_ns(report) / 1000:>10.0f} "
                f"{fault_availability(report):>7.4f} "
                f"{report['replication']['failovers']:>10}")
        show("\n".join(lines))
        fastest = curves[PROBE_INTERVALS_NS[0]]
        slowest = curves[PROBE_INTERVALS_NS[-1]]
        # Detection latency tracks the probe interval...
        assert (detection_latency_ns(fastest)
                <= detection_latency_ns(slowest))
        # ...and a stale health map makes more requests pay the failover
        # timeout before landing on the backup.
        assert (fastest["replication"]["failovers"]
                <= slowest["replication"]["failovers"])
        # Availability survives even slow detection: clients' own
        # failover clocks are the backstop, probes only cheapen it.
        for report in curves.values():
            assert fault_availability(report) >= 0.95
