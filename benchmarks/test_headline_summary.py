"""The reproduction scorecard: every headline number of the paper in one
table, paper vs measured (the machine-readable version of EXPERIMENTS.md).
"""

import pytest

from conftest import run_once
from repro.bench.figures import FIGURES, PAPER


def test_headline_summary(benchmark, show):
    result = run_once(benchmark, FIGURES["scorecard"])
    show(result.table)
    m = result.values

    for key, tolerance in (("fm1_latency_us", 0.15), ("fm1_peak_mbs", 0.15),
                           ("fm1_n_half_bytes", 0.30),
                           ("fm2_latency_us", 0.15), ("fm2_peak_mbs", 0.15),
                           ("mpi2_peak_mbs", 0.15)):
        assert m[key] == pytest.approx(PAPER[key].value, rel=tolerance), key
    assert m["fm2_n_half_bytes"] < PAPER["fm2_n_half_bytes"].value
    assert 0.62 <= m["mpi2_eff_16"] <= 0.80
    assert m["mpi2_eff_2048"] >= 0.85
