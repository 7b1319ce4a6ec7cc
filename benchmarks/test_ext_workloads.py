"""Extension: load-latency knees and incast fan-in for the workload layer.

The paper's §5 curves measure one stream in isolation; these benchmarks
put *sustained offered load* on the same simulated hardware and locate the
saturation knee — the highest offered load the service still delivers
(within 10%).  The layering claim becomes a capacity claim: FM 2.x's
gather interface (no assembly copy), 1 KB packets, and interleaved
handlers move the knee to a higher offered load than FM 1.x on identical
hardware, and the bursty incast pattern shows the overload policies
(queue backpressure vs shed) trading tail latency against goodput.
"""

from __future__ import annotations

from conftest import run_once
from repro.bench.figures import FIGURES, knee_scenario
from repro.workloads.runner import run_scenario


class TestLoadLatencyKnee:
    def test_fm2_knee_sits_at_higher_offered_load(self, benchmark, show):
        result = run_once(benchmark, FIGURES["ext_workloads"])
        show(result.table)
        v = result.values
        knee1, knee2 = v["fm1/knee"], v["fm2/knee"]
        assert knee1 > 0, "FM1 never kept up — sweep starts too high"
        assert knee2 > knee1, (
            f"FM2 knee ({knee2}) should exceed FM1 ({knee1})")
        # Past both knees, FM2 still delivers more of the offered load.
        assert v["fm2/45000/rps"] > v["fm1/45000/rps"]

    def test_sweep_point_reruns_bit_identical(self, benchmark):
        def pair():
            return (run_scenario(knee_scenario(2, 20_000.0)),
                    run_scenario(knee_scenario(2, 20_000.0)))
        first, second = benchmark.pedantic(pair, rounds=1, iterations=1)
        assert first == second


class TestIncast:
    def test_queue_absorbs_shed_drops(self, benchmark):
        result = run_once(benchmark, FIGURES["ext_workloads"])
        v = result.values
        # Backpressure delivers everything; shedding drops but bounds tails.
        assert v["queue/completed"] == v["queue/sent"] == 200
        assert v["queue/drops"] == 0
        assert v["shed/shed"] > 0
        assert v["shed/completed"] + v["shed/shed"] == v["shed/sent"]
        assert v["shed/p99_ns"] < v["queue/p99_ns"]
        # Fan-in pressure is visible at the server queue.
        assert v["queue/queue_depth_max"] >= 8
