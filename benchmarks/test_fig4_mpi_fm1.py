"""Figure 4: the initial MPI-FM over FM 1.x — the failure that motivated
FM 2.x.  (a) absolute bandwidth vs raw FM 1.x; (b) efficiency (% of FM).

Paper claims reproduced: MPI-FM 1.x "fail[s] to deliver more than 35% of
the underlying FM bandwidth" (abstract: "only about 20%"), because of the
interface copies (send assembly; staging -> pool -> user on receive) and
the lack of receiver pacing (pool overruns force spill copies).
"""

from conftest import run_once
from repro.bench.figures import FIGURES


def test_fig4_mpi_fm1_efficiency(benchmark, show):
    result = run_once(benchmark, FIGURES["fig4"])
    show(result.table)
    fm, mpi = result.curves

    efficiencies = [m / f for m, f in zip(mpi.bandwidths_mbs, fm.bandwidths_mbs)]
    # The paper's bands: never above ~35-45%, around 20% for short messages.
    assert max(efficiencies) < 0.45
    assert 0.15 <= efficiencies[0] <= 0.35
    # MPI-FM 1.x peak bandwidth is a small multiple of megabytes/second.
    assert mpi.peak_mbs < 8.0
    # Efficiency improves somewhat with size (as in the figure) ...
    assert efficiencies[-1] > efficiencies[0]
    # ... but the interface tax never comes close to being amortised.
    assert efficiencies[-1] < 0.5
