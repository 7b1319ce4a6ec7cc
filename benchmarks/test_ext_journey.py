"""Extension — single-message latency attribution, stage by stage.

The paper reports latency as one number (14 µs FM 1.x, 11 µs FM 2.x); the
waypoint-instrumented substrate lets us decompose it: API + PIO, NIC
firmware, wire and switch, receive DMA, extract + handler.  Both
generations are send-side dominated, with the receive DMA second —
consistent with the paper's overhead discussions.
"""

import pytest

from conftest import run_once
from repro.bench.journey import packet_journey
from repro.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1


def test_ext_latency_attribution(benchmark, show):
    def regenerate():
        return {
            "FM 1.x": packet_journey(Cluster(2, SPARC_FM1, 1)),
            "FM 2.x": packet_journey(Cluster(2, PPRO_FM2, 2)),
        }

    journeys = run_once(benchmark, regenerate)
    for label, journey in journeys.items():
        show(f"{label} — 16 B one-way journey\n{journey.render()}")

    fm1, fm2 = journeys["FM 1.x"], journeys["FM 2.x"]
    # Totals agree with the headline latencies (one-way, single message;
    # slightly below the ping-pong average which includes poll discovery).
    assert fm1.total_ns / 1000 == pytest.approx(13.2, rel=0.15)
    assert fm2.total_ns / 1000 == pytest.approx(10.1, rel=0.15)
    # Both generations are send-side (API + PIO) dominated...
    assert fm1.longest_stage().startswith("api_enter")
    assert fm2.longest_stage().startswith("api_enter")
    # ...and the wire + switch account for under 15% of the total.  A stage
    # is attributed to the component its *ending* mark names.
    for journey in journeys.values():
        network = sum(
            duration for name, duration in journey.stages()
            if name.split(" -> ")[1].endswith((".wire", ".forward"))
        )
        assert network < 0.15 * journey.total_ns
