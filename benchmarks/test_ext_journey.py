"""Extension — single-message latency attribution, stage by stage.

The paper reports latency as one number (14 µs FM 1.x, 11 µs FM 2.x); the
waypoint-instrumented substrate lets us decompose it: API + PIO, NIC
firmware, wire and switch, receive DMA, extract + handler.  Both
generations are send-side dominated, with the receive DMA second —
consistent with the paper's overhead discussions.  The journeys are
``FIGURES["journey"]``.
"""

import pytest

from conftest import run_once
from repro.bench.figures import FIGURES


def test_ext_latency_attribution(benchmark, show):
    result = run_once(benchmark, FIGURES["journey"])
    show(result.table)

    for layer, total_us in (("fm1", 13.2), ("fm2", 10.1)):
        stages = {key.split("/", 1)[1]: ns for key, ns in result.values.items()
                  if key.startswith(f"{layer}/") and not key.endswith("TOTAL")}
        total = result.values[f"{layer}/TOTAL"]
        # Totals agree with the headline latencies (one-way, single message;
        # slightly below the ping-pong average which includes poll
        # discovery).
        assert total / 1000 == pytest.approx(total_us, rel=0.15)
        # Both generations are send-side (API + PIO) dominated...
        assert max(stages, key=stages.get).startswith("api_enter")
        # ...and the wire + switch account for under 15% of the total.  A
        # stage is attributed to the component its *ending* mark names.
        network = sum(ns for name, ns in stages.items()
                      if name.split(" -> ")[1].endswith((".wire", ".forward")))
        assert network < 0.15 * total
