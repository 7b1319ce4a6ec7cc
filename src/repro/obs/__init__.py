"""Unified cross-layer observability: spans, metrics, trace export, reports.

The paper's central evidence is *attribution* — where the microseconds go
as a message crosses layer interfaces.  This package makes that a first-
class capability of the simulator for arbitrary traffic:

* :mod:`repro.obs.span` — ``Span(layer, name, t_start, t_end, attrs)``
  records emitted at every instrumented layer crossing, now carrying an
  optional ``(trace_id, span_id, parent_id)`` causal identity;
* :mod:`repro.obs.observer` — the ``env.obs`` hook instrumented code
  reports to (off by default, zero simulated-time cost, deterministic),
  including :class:`~repro.obs.span.TraceContext` minting / binding for
  end-to-end request tracing;
* :mod:`repro.obs.metrics` — named histograms (:class:`Reservoir`),
  windowed rate meters, counter bags and each node's ``CopyMeter`` in one
  per-run registry — the stats' registry, which an observed run's
  observer adopts;
* :mod:`repro.obs.timeseries` — windowed time series (rates, gauges,
  quantiles) sampled at fixed simulated-time intervals; its
  :class:`RateSeries` is also the registry's rate meter;
* :mod:`repro.obs.slo` — declarative SLOs with error-budget burn-rate
  detection over those windows;
* :mod:`repro.obs.export` — Perfetto / Chrome trace-event JSON export
  with causal flow arrows (open any run in ``ui.perfetto.dev``);
* :mod:`repro.obs.report` — the per-stage breakdown report of an
  observed run (``python -m repro.workloads.run <preset> --breakdown``),
  plus per-request waterfalls / critical paths for traced rpc scenarios.

Quickstart::

    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    obs = cluster.observe()            # attach; instrumentation wakes up
    ... run programs ...
    export_trace(obs, "out/run.json")  # -> ui.perfetto.dev
    print(obs.metrics.histogram("packet.latency_ns").p99)
"""

from repro.obs.export import (
    dumps_deterministic,
    distinct_tracks,
    export_trace,
    flow_pid_pairs,
    trace_events,
    validate_trace_events,
)
from repro.obs.metrics import Metrics, Reservoir
from repro.obs.observer import Observer
from repro.obs.slo import BurnRateDetector, SloEvent, SloSpec, evaluate_slos
from repro.obs.span import LAYER_ORDER, Span, TraceContext
from repro.obs.timeseries import (
    GaugeSeries,
    QuantileSeries,
    RateSeries,
    TimeSeriesBank,
)

__all__ = [
    "BurnRateDetector",
    "GaugeSeries",
    "LAYER_ORDER",
    "Metrics",
    "Observer",
    "QuantileSeries",
    "RateSeries",
    "Reservoir",
    "SloEvent",
    "SloSpec",
    "Span",
    "TimeSeriesBank",
    "TraceContext",
    "distinct_tracks",
    "dumps_deterministic",
    "evaluate_slos",
    "export_trace",
    "flow_pid_pairs",
    "trace_events",
    "validate_trace_events",
]

