"""Extension — latency vs message size for both FM generations.

The paper reports only minimum (short-message) latency; the sweep shows
the whole profile: a flat overhead-dominated region followed by linear
growth once per-byte costs (PIO, DMA, copies) take over — and FM 2.x
beats FM 1.x at every size, with the gap widening with message length.
"""

import pytest

from conftest import run_once
from repro.bench.microbench import fm_pingpong
from repro.bench.report import HeadlineRow, headline_table
from repro.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1

SIZES = (16, 128, 1024, 4096)


def test_ext_latency_vs_size(benchmark, show):
    def regenerate():
        return {
            "FM 1.x": [fm_pingpong(Cluster(2, SPARC_FM1, 1), size,
                                   iterations=8).one_way_latency_us
                       for size in SIZES],
            "FM 2.x": [fm_pingpong(Cluster(2, PPRO_FM2, 2), size,
                                   iterations=8).one_way_latency_us
                       for size in SIZES],
        }

    results = run_once(benchmark, regenerate)
    rows = []
    for label, latencies in results.items():
        for size, latency in zip(SIZES, latencies):
            rows.append(HeadlineRow(f"{label} @ {size} B", "-",
                                    f"{latency:.1f} us"))
    show(headline_table("Extension — one-way latency vs message size", rows))

    fm1, fm2 = results["FM 1.x"], results["FM 2.x"]
    # Monotone in size on both generations.
    assert fm1 == sorted(fm1)
    assert fm2 == sorted(fm2)
    # FM 2.x wins everywhere, and by more at 4 KB than at 16 B (the faster
    # PIO/DMA per-byte path compounds).
    for small, large in zip(fm2, fm1):
        assert small < large
    assert (fm1[-1] - fm2[-1]) > (fm1[0] - fm2[0])
    # The short-message anchors match the headline calibration.
    assert fm1[0] == pytest.approx(13.2, rel=0.1)
    assert fm2[0] == pytest.approx(10.1, rel=0.1)
