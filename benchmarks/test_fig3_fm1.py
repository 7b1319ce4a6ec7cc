"""Figure 3: FM 1.x on the Sparc/SBus/Myrinet testbed.

(a) overhead breakdown — bandwidth with (1) link management only,
    (2) + I/O bus crossing, (3) + flow control (= full FM 1.x);
(b) overall FM 1.x performance — the paper's headline: 17.6 MB/s peak,
    14 µs latency, N-half = 54 bytes.
"""

import pytest

from conftest import run_once
from repro.bench.figures import FIGURES, PAPER


def test_fig3a_overhead_breakdown(benchmark, show):
    result = run_once(benchmark, FIGURES["fig3a"])
    show(result.table)
    link, bus, flow = result.curves

    # Shape claims: the bus crossing costs most of the link bandwidth
    # (paper: ~60 -> ~20 MB/s at 512 B); flow control, properly designed,
    # costs little on top (§3.1: "these guarantees need not be costly").
    assert link.at(512) > 3 * bus.at(512)
    assert flow.at(512) > 0.85 * bus.at(512)
    # Each curve rises with message size.
    for sweep in (link, bus, flow):
        assert sweep.bandwidths_mbs == sorted(sweep.bandwidths_mbs)


def test_fig3b_fm1_overall(benchmark, show):
    result = run_once(benchmark, FIGURES["fig3b"])
    show(result.table)
    for key, tolerance in (("fm1_latency_us", 0.15), ("fm1_peak_mbs", 0.15),
                           ("fm1_n_half_bytes", 0.30)):
        assert result.values[key] == pytest.approx(PAPER[key].value,
                                                   rel=tolerance), key
