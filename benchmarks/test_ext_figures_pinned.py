"""The extension and ablation figures are pinned, to the printed digit and
the measured value, by ``tests/golden/ext.figures.json``.

Every ``FIGURES`` entry is cached per process, so after the benchmarks
above this compares what they already computed and simulates nothing new;
``tests/golden/regen.py --check --slow`` makes the same comparison outside
pytest.
"""

from conftest import run_once
from tests.golden import regen


def test_ext_figures_match_golden(benchmark):
    fresh = run_once(benchmark,
                     lambda: regen.figures_text(regen.EXT_FIGURES))
    assert fresh == regen.golden_text(regen.EXT_FIGURES)
