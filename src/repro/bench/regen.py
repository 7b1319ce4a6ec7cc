"""Regenerate every figure/table of the paper and its extensions.

``python -m repro.bench.regen``                  — all figures, as tables
``python -m repro.bench.regen fig5 fig6``        — a subset
``python -m repro.bench.regen --json out/``      — and ``out/<name>.json``
``python -m repro.bench.regen fig5 --csv out/``  — and ``out/fig5.csv``

This is the pytest-free path to the measurements the benchmark suite asserts
on: both read :data:`repro.bench.figures.FIGURES` (the paper's figures and
the ``ext_*`` / ``ablation_*`` tables), so the tables, the files and the
bands are one result in three renderings; EXPERIMENTS.md pastes the tables.  Every figure has a JSON
form (its curves and its scalar values); the curve figures also have a CSV
form.  Without names, a form is written for every figure that has it;
*naming* a figure for a form it lacks is a usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.figures import FIGURES
from repro.bench.report import sweeps_to_csv, sweeps_to_json


def _write(directory: str, name: str, form: str, text: str) -> None:
    path = Path(directory) / f"{name}.{form}"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"[{form}: {path}]")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regen",
        description="Regenerate the paper's figures from the simulator.")
    parser.add_argument("figures", nargs="*", metavar="name",
                        help=f"subset to regenerate, of: {', '.join(FIGURES)} "
                             "(default: all)")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each curve figure as DIR/<name>.csv")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write each figure's curves and values "
                             "as DIR/<name>.json")
    args = parser.parse_args(argv)
    unknown = [name for name in args.figures if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s) {', '.join(unknown)}; "
                     f"choices: {', '.join(FIGURES)}")
    results, seconds = {}, {}
    for name in args.figures or FIGURES:
        start = time.perf_counter()
        results[name] = FIGURES[name]()
        seconds[name] = time.perf_counter() - start
    curveless = [name for name in args.figures if not results[name].curves]
    if args.csv is not None and curveless:
        parser.error(f"{', '.join(curveless)}: no CSV form (no curves); "
                     "--json carries the values")
    for name, result in results.items():
        print(result.table)
        print(f"[{name}: regenerated in {seconds[name]:.2f} s]\n")
        if args.csv is not None and result.curves:
            _write(args.csv, name, "csv", sweeps_to_csv(result.curves))
        if args.json is not None:
            _write(args.json, name, "json",
                   sweeps_to_json(result.curves, result.values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
