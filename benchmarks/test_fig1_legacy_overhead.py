"""Figure 1: Ethernet theoretical bandwidth under a fixed 125 µs protocol
processing overhead, for 100 Mbit and 1 Gbit wires, message sizes 8-1024 B.

Paper claims reproduced: both curves are overhead-bound and nearly
indistinguishable below ~256 B; even at 1024 B the 1 Gbit wire delivers
under 8 MB/s — the motivation for a low-overhead messaging layer.
"""

import pytest

from conftest import run_once
from repro.bench.figures import FIGURES


def test_fig1_legacy_bandwidth_curves(benchmark, show):
    result = run_once(benchmark, FIGURES["fig1"])
    show(result.table)
    mbit, gbit = (curve.bandwidths_mbs for curve in result.curves)

    # Shape: short messages are overhead-bound on both wires.
    for i, size in enumerate(result.curves[0].sizes):
        if size <= 256:
            assert gbit[i] / mbit[i] < 1.2
            assert gbit[i] < 2.1
    # At 1024 B the curves finally separate, but stay under ~8 MB/s.
    assert gbit[-1] == pytest.approx(7.7, rel=0.05)
    assert mbit[-1] == pytest.approx(4.95, rel=0.05)
    # Simulated pipeline agrees with the analytic curve.
    assert result.values["simulated_1gbit_1024_mbs"] == pytest.approx(
        gbit[-1], rel=0.10)
