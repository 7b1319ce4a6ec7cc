"""Renderers: a figure as a fixed-width text table, as CSV and as JSON.

Benchmarks and ``python -m repro.bench.regen`` print the tables so the output
can be compared against the paper line by line (EXPERIMENTS.md records the
paper-vs-measured pairs); ``regen --csv/--json`` writes the same series as
files to plot or diff.  CSV columns are ``size_bytes`` plus one per series;
JSON is deterministic (:func:`repro.obs.export.dumps_deterministic`), so a
repeated export is byte-identical.  Both carry bandwidths at 4 dp.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.bench.sweeps import SweepResult
from repro.obs.export import dumps_deterministic


def _shared_sizes(sweeps: Sequence[SweepResult]) -> list[int]:
    """The one size axis every sweep of a figure must cover."""
    if not sweeps:
        raise ValueError("need at least one sweep")
    sizes = sweeps[0].sizes
    for s in sweeps[1:]:
        if s.sizes != sizes:
            raise ValueError("sweeps cover different sizes")
    return sizes


def sweeps_to_csv(sweeps: Sequence[SweepResult]) -> str:
    """Aligned sweeps as CSV text (header + one row per size)."""
    sizes = _shared_sizes(sweeps)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["size_bytes"] + [s.label for s in sweeps])
    for i, size in enumerate(sizes):
        writer.writerow([size] + [f"{s.bandwidths_mbs[i]:.4f}" for s in sweeps])
    return out.getvalue()


def sweeps_to_json(sweeps: Sequence[SweepResult],
                   values: Optional[Mapping[str, float]] = None) -> str:
    """Aligned sweeps as deterministic JSON text: ``sizes`` is the shared
    axis, ``series`` maps each label to its bandwidths.

    With ``values`` — a figure's scalars — the document gains that key and
    ``sweeps`` may be empty: Figure 2, the journey and the scorecard have
    numbers but no curve.
    """
    sizes = _shared_sizes(sweeps) if sweeps or values is None else []
    document = {"sizes": list(sizes),
                "series": {s.label: [round(b, 4) for b in s.bandwidths_mbs]
                           for s in sweeps}}
    if values is not None:
        document["values"] = {key: round(v, 4) for key, v in values.items()}
    return dumps_deterministic(document)


def curve_table(title: str, sweeps: Sequence[SweepResult],
                unit: str = "MB/s") -> str:
    """One row per message size, one column per sweep."""
    sizes = _shared_sizes(sweeps)
    width = max(12, max(len(s.label) for s in sweeps) + 2)
    lines = [title, "=" * len(title)]
    header = f"{'size (B)':>10}" + "".join(f"{s.label:>{width}}" for s in sweeps)
    lines.append(header + f"   [{unit}]")
    for i, size in enumerate(sizes):
        row = f"{size:>10}" + "".join(
            f"{s.bandwidths_mbs[i]:>{width}.2f}" for s in sweeps)
        lines.append(row)
    return "\n".join(lines)


def efficiency_table(title: str, upper: SweepResult, base: SweepResult) -> str:
    """Percent-of-baseline per size (Figures 4b and 6b)."""
    effs = upper.efficiency_vs(base)
    lines = [title, "=" * len(title),
             f"{'size (B)':>10}{upper.label:>12}{base.label:>12}{'eff %':>8}"]
    for size, mine, theirs, eff in zip(upper.sizes, upper.bandwidths_mbs,
                                       base.bandwidths_mbs, effs):
        lines.append(f"{size:>10}{mine:>12.2f}{theirs:>12.2f}{eff:>8.1f}")
    return "\n".join(lines)


@dataclass
class HeadlineRow:
    metric: str
    paper: str
    measured: str
    within: Optional[str] = None


def headline_table(title: str, rows: Sequence[HeadlineRow]) -> str:
    """Paper-vs-measured headline metrics; a column widens past its
    default width to fit its longest entry."""
    w_m = max(len(r.metric) for r in rows) + 2
    w_p, w_v, w_n = (max(width, *(len(text) + 2 for text in column))
                     for width, column in zip((14, 14, 16), zip(*(
                         (r.paper, r.measured, r.within or "") for r in rows))))
    lines = [title, "=" * len(title),
             f"{'metric':<{w_m}}{'paper':>{w_p}}{'measured':>{w_v}}"
             f"{'note':>{w_n}}"]
    for r in rows:
        lines.append(f"{r.metric:<{w_m}}{r.paper:>{w_p}}{r.measured:>{w_v}}"
                     f"{(r.within or ''):>{w_n}}")
    return "\n".join(lines)


def bar_table(title: str, groups: Sequence[str], components: Sequence[str],
              values: dict[tuple[str, str], float], unit: str = "cycles") -> str:
    """Stacked-bar figure as a table: rows = components, columns = groups."""
    w = max(14, max(len(g) for g in groups) + 2)
    w_c = max(len(c) for c in components) + 2
    lines = [title, "=" * len(title),
             f"{'component':<{w_c}}" + "".join(f"{g:>{w}}" for g in groups)
             + f"   [{unit}]"]
    for comp in components:
        lines.append(f"{comp:<{w_c}}" + "".join(
            f"{values[(comp, g)]:>{w}.0f}" for g in groups))
    lines.append(f"{'TOTAL':<{w_c}}" + "".join(
        f"{sum(values[(c, g)] for c in components):>{w}.0f}" for g in groups))
    return "\n".join(lines)
