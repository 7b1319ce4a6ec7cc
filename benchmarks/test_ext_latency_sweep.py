"""Extension — latency vs message size for both FM generations.

The paper reports only minimum (short-message) latency; the sweep shows
the whole profile: a flat overhead-dominated region followed by linear
growth once per-byte costs (PIO, DMA, copies) take over — and FM 2.x
beats FM 1.x at every size, with the gap widening with message length.
"""

import pytest

from conftest import run_once
from repro.bench.figures import FIGURES


def test_ext_latency_vs_size(benchmark, show):
    result = run_once(benchmark, FIGURES["ext_latency_size"])
    show(result.table)

    fm1, fm2 = ([us for key, us in result.values.items()
                 if key.startswith(layer)] for layer in ("fm1/", "fm2/"))
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
