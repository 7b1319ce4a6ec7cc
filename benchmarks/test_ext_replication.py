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

from conftest import run_once
from repro.bench.figures import FIGURES
from repro.workloads.presets import PRESETS
from repro.workloads.runner import run_scenario


class TestAvailabilityDuringFault:
    def test_replication_recovers_the_blackout(self, benchmark, show):
        result = run_once(benchmark, FIGURES["ext_replication"])
        show(result.table)
        v = result.values
        # The headline: replication keeps the window >= 99% available
        # while the unreplicated control blacks out shard 1's keys.
        assert v["R=2/availability"] >= 0.99
        assert v["R=1/availability"] < 0.9
        assert v["R=1/shard1"] < 0.5
        # Same totals either way: nothing is silently dropped.
        for service in ("R=1", "R=2"):
            assert (v[f"{service}/completed"] + v[f"{service}/drops"]
                    == v[f"{service}/sent"])

    def test_replicated_fault_run_reruns_bit_identical(self, benchmark):
        name = "rpc-replicated-failover"

        def pair():
            return (run_scenario(PRESETS[name], plan=PRESETS.rows[name].plan),
                    run_scenario(PRESETS[name], plan=PRESETS.rows[name].plan))
        first, second = benchmark.pedantic(pair, rounds=1, iterations=1)
        assert first == second


class TestProbeIntervalSweep:
    def test_slower_probes_cost_more_failovers(self, benchmark):
        result = run_once(benchmark, FIGURES["ext_replication"])
        v = result.values
        # Detection latency tracks the probe interval...
        assert v["50000/detection_ns"] <= v["600000/detection_ns"]
        # ...and a stale health map makes more requests pay the failover
        # timeout before landing on the backup.
        assert v["50000/failovers"] <= v["600000/failovers"]
        # Availability survives even slow detection: clients' own
        # failover clocks are the backstop, probes only cheapen it.
        for interval in (50_000, 150_000, 600_000):
            assert v[f"{interval}/availability"] >= 0.95
