"""Microbenchmark harness: the measurements behind every figure.

* :mod:`~repro.bench.microbench` — ping-pong latency and streaming
  bandwidth on raw FM (1.x and 2.x).
* :mod:`~repro.bench.mpibench` — the same two microbenchmarks through MPI.
* :mod:`~repro.bench.journey` — one message's latency, stage by stage.
* :mod:`~repro.bench.micro` — the three as ``kind="micro"`` scenarios.
* :mod:`~repro.bench.sweeps` — message-size sweeps producing the curves of
  Figures 3-6.
* :mod:`~repro.bench.nhalf` — the half-power point (N-half) estimator.
* :mod:`~repro.bench.figures` — the paper's figures, each defined once:
  ``FIGURES[name]()`` -> table, curves, values; ``PAPER`` holds the
  reference numbers.
* :mod:`~repro.bench.report` — the renderers: fixed-width tables comparing
  measured values against the paper's, CSV and JSON.
* :mod:`~repro.bench.regen` — ``python -m repro.bench.regen [names]
  [--csv DIR] [--json DIR]``.
* :mod:`~repro.bench.calibration` — first-order analytic predictions used
  to calibrate ``repro.configs`` (documented in DESIGN.md §4).
"""
