"""§6's bottom line: "the peak bandwidth of a high level library like
MPI-FM ... went from an initial 20% to a final 90% of the bandwidth made
available by the FM layer."

One table, both generations side by side: the fraction of FM's bandwidth
MPI extracts, per message size — the whole paper in eight rows.
"""

from conftest import run_once
from repro.bench.figures import FIGURES
from repro.bench.report import efficiency_table


def test_summary_layering_progress(benchmark, show):
    results = run_once(benchmark, lambda: {1: FIGURES["fig4"]().curves,
                                           2: FIGURES["fig6"]().curves})
    for version, (fm, mpi) in results.items():
        show(efficiency_table(
            f"Layering efficiency, generation {version} "
            f"(paper: {'<= 35%' if version == 1 else '70-90%'})", mpi, fm))

    fm1, mpi1 = results[1]
    fm2, mpi2 = results[2]
    eff1 = [m / f for m, f in zip(mpi1.bandwidths_mbs, fm1.bandwidths_mbs)]
    eff2 = [m / f for m, f in zip(mpi2.bandwidths_mbs, fm2.bandwidths_mbs)]

    # The abstract's before/after: ~20% -> 70-90%.
    assert min(eff1) < 0.30            # "an initial 20%"
    assert max(eff1) < 0.45            # never escapes the interface tax
    assert min(eff2) > 0.60            # "over 70% even for 16 byte messages"
    assert max(eff2) > 0.88            # "to a final 90%"
    # The redesign wins at EVERY size, by at least 2x.
    for before, after in zip(eff1, eff2):
        assert after > 2 * before
    # And absolute MPI bandwidth improved by an order of magnitude.
    assert max(mpi2.bandwidths_mbs) > 9 * max(mpi1.bandwidths_mbs)
