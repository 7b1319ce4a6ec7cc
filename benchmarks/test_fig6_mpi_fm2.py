"""Figure 6: MPI-FM 2.0 vs FM 2.0 — the paper's bottom line.

Paper claims reproduced: MPI over FM 2.x achieves ~70 MB/s peak (vs 77 on
raw FM), 17 µs latency, and delivers 70% of FM's bandwidth even at 16-byte
messages, rising to ~90% — because gather/scatter removes the assembly
copy, interleaving steers payloads into pre-posted buffers, and
FM_extract(bytes) prevents buffer-pool overruns.
"""

import pytest

from conftest import run_once
from repro.bench.figures import FIGURES, PAPER


def test_fig6_mpi_fm2_efficiency(benchmark, show):
    result = run_once(benchmark, FIGURES["fig6"])
    show(result.table)
    fm, mpi = result.curves

    efficiencies = [m / f for m, f in zip(mpi.bandwidths_mbs, fm.bandwidths_mbs)]
    assert mpi.peak_mbs == pytest.approx(PAPER["mpi2_peak_mbs"].value,
                                         rel=0.15)
    assert 12.0 <= result.values["mpi2_latency_us"] <= 19.6
    # The abstract's band: 70-90% delivered to MPI across the size range.
    assert 0.62 <= efficiencies[0] <= 0.80
    assert efficiencies[-1] >= 0.85
    assert all(e >= 0.62 for e in efficiencies)
    assert efficiencies[0] < efficiencies[-1]
