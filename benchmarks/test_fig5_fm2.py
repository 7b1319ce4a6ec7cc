"""Figure 5: FM 2.1 performance on the 200 MHz Pentium Pro testbed.

Paper headlines reproduced: 11 µs minimum one-way latency, 77 MB/s peak
bandwidth, N-half < 256 bytes, and the "nearly fourfold" absolute
improvement over FM 1.x.
"""

import pytest

from conftest import run_once
from repro.bench.figures import FIGURES, PAPER


def test_fig5_fm2_performance(benchmark, show):
    result = run_once(benchmark, FIGURES["fig5"])
    show(result.table)
    measured = result.values
    (sweep,) = result.curves

    for key in ("fm2_latency_us", "fm2_peak_mbs"):
        assert measured[key] == pytest.approx(PAPER[key].value, rel=0.15), key
    assert measured["fm2_n_half_bytes"] < PAPER["fm2_n_half_bytes"].value
    # §1: "nearly fourfold increase of absolute performance" — over the
    # FM 1.x peak Figure 3(b) measures.
    fm1_peak = FIGURES["fig3b"]().values["fm1_peak_mbs"]
    assert 3.5 <= measured["fm2_peak_mbs"] / fm1_peak <= 5.0
    # Rapid growth of the bandwidth curve (§4.2): half power well before
    # one packet, then a steady climb to the peak at 2 KB.
    assert sweep.bandwidths_mbs == sorted(sweep.bandwidths_mbs)
