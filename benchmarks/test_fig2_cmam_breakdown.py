"""Figure 2: breakdown of CM-5 Active Messages overhead by component
(base / buffer management / in-order delivery / fault tolerance), for the
source, destination and total, under the finite- and indefinite-sequence
multi-packet protocols (16-word messages, 4-word packets).

Paper anchor reproduced exactly: 216 of 397 total cycles pay for the
guarantees (buffer mgmt 148, in-order 21, fault tolerance 47), i.e. 50-70%
of messaging cost is the software bridging network/application semantics.
"""

from conftest import run_once
from repro.bench.figures import FIGURES


def test_fig2_cmam_overhead_breakdown(benchmark, show):
    result = run_once(benchmark, FIGURES["fig2"])
    show(result.table)
    cycles = result.values     # "<sequence>/<side>/<component or TOTAL>"

    # Anchors from the paper's text.
    assert cycles["finite/total/TOTAL"] == 397
    assert cycles["finite/total/buffer_mgmt"] == 148
    assert cycles["finite/total/in_order"] == 21
    assert cycles["finite/total/fault_tolerance"] == 47
    assert cycles["finite/total/TOTAL"] - cycles["finite/total/base"] == 216
    # Figure shape: indefinite-sequence bars are taller, dest > src,
    # and the guarantee share sits in the 50-70% band for both protocols.
    assert cycles["indef/total/TOTAL"] > cycles["finite/total/TOTAL"]
    assert cycles["finite/dest/TOTAL"] > cycles["finite/src/TOTAL"]
    for sequence in ("finite", "indef"):
        total = cycles[f"{sequence}/total/TOTAL"]
        guarantees = total - cycles[f"{sequence}/total/base"]
        assert 0.50 <= guarantees / total <= 0.70
