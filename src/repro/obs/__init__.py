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

The package re-exports nothing: a run loads the modules it uses
(``Cluster.observe`` imports only the observer and its metrics).

Quickstart::

    from repro.obs.export import export_trace

    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    obs = cluster.observe()            # attach; instrumentation wakes up
    ... run programs ...
    export_trace(obs, "out/run.json")  # -> ui.perfetto.dev
    print(obs.metrics.histogram("packet.latency_ns").p99)
"""
