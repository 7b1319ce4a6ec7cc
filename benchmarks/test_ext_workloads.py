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

import pytest

from repro.workloads.rpc_kind import RpcScenario
from repro.workloads.runner import run_scenario

#: Per-client offered load points (requests/s); two clients per run.
SWEEP_RATES = (5_000.0, 10_000.0, 15_000.0, 20_000.0, 30_000.0, 45_000.0)


def sweep_point(fm_version: int, rate_rps: float) -> dict:
    return run_scenario(RpcScenario(
        name=f"knee-fm{fm_version}", kind="rpc", n_nodes=3,
        fm_version=fm_version, arrival="open", rate_rps=rate_rps,
        n_requests=60, req_bytes=512, resp_bytes=512, work_ns=0,
        workers=2, seed=11))["results"]


def find_knee(points: dict[float, dict]) -> float:
    """Highest per-client offered rate still delivered within 10%."""
    knee = 0.0
    for rate, results in sorted(points.items()):
        offered = 2 * rate                      # two clients
        if results["throughput_rps"] >= 0.9 * offered:
            knee = rate
    return knee


class TestLoadLatencyKnee:
    def test_fm2_knee_sits_at_higher_offered_load(self, benchmark, show):
        def sweep():
            return {
                version: {rate: sweep_point(version, rate)
                          for rate in SWEEP_RATES}
                for version in (1, 2)
            }
        curves = benchmark.pedantic(sweep, rounds=1, iterations=1)
        lines = ["load-latency sweep (2 clients, 512B req/resp, no service "
                 "work; offered = 2x rate)",
                 f"{'rate/client':>12} {'FM1 rps':>10} {'FM1 p99us':>10} "
                 f"{'FM2 rps':>10} {'FM2 p99us':>10}"]
        for rate in SWEEP_RATES:
            fm1, fm2 = curves[1][rate], curves[2][rate]
            lines.append(
                f"{rate:>12.0f} {fm1['throughput_rps']:>10.0f} "
                f"{fm1['latency']['p99_ns'] / 1000:>10.1f} "
                f"{fm2['throughput_rps']:>10.0f} "
                f"{fm2['latency']['p99_ns'] / 1000:>10.1f}")
        knee1, knee2 = find_knee(curves[1]), find_knee(curves[2])
        lines.append(f"knee: FM1 at {knee1:.0f}/client, FM2 at {knee2:.0f}/client")
        show("\n".join(lines))
        assert knee1 > 0, "FM1 never kept up — sweep starts too high"
        assert knee2 > knee1, (
            f"FM2 knee ({knee2}) should exceed FM1 ({knee1})")
        # Past both knees, FM2 still delivers more of the offered load.
        top = SWEEP_RATES[-1]
        assert (curves[2][top]["throughput_rps"]
                > curves[1][top]["throughput_rps"])

    def test_sweep_point_reruns_bit_identical(self, benchmark):
        def pair():
            return sweep_point(2, 20_000.0), sweep_point(2, 20_000.0)
        first, second = benchmark.pedantic(pair, rounds=1, iterations=1)
        assert first == second


def incast(policy: str, queue_capacity: int) -> dict:
    # Five clients burst in phase at one server: the classic fan-in.
    return run_scenario(RpcScenario(
        name=f"incast-{policy}", kind="rpc", n_nodes=6, arrival="bursty",
        rate_rps=60_000.0, burst_on_ns=150_000, burst_off_ns=350_000,
        n_requests=40, req_bytes=256, resp_bytes=256, work_ns=3_000,
        workers=2, policy=policy, queue_capacity=queue_capacity,
        seed=23))["results"]


class TestIncast:
    def test_queue_absorbs_shed_drops(self, benchmark, show):
        def run():
            return incast("queue", 16), incast("shed", 4)
        queued, shedding = benchmark.pedantic(run, rounds=1, iterations=1)
        show("incast fan-in (5 clients -> 1 server, phase-aligned bursts)\n"
             f"  queue[16]: completed {queued['completed']}/{queued['sent']}"
             f" p99 {queued['latency']['p99_ns'] / 1000:.1f}us\n"
             f"  shed[4]:   completed {shedding['completed']}/"
             f"{shedding['sent']} shed {shedding['drops']['shed']}"
             f" p99 {shedding['latency']['p99_ns'] / 1000:.1f}us")
        # Backpressure delivers everything; shedding drops but bounds tails.
        assert queued["completed"] == queued["sent"] == 200
        assert queued["drops"]["total"] == 0
        assert shedding["drops"]["shed"] > 0
        assert (shedding["completed"] + shedding["drops"]["shed"]
                == shedding["sent"])
        assert (shedding["latency"]["p99_ns"]
                < queued["latency"]["p99_ns"])
        # Fan-in pressure is visible at the server queue.
        assert queued["queue_depth_max"] >= 8
