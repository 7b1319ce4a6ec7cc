"""The metrics registry: histograms, rate meters, and federated counters.

One :class:`Metrics` object per cluster collects every quantitative signal
the observability layer produces:

* **histograms** — named distributions with label sets (per-stage packet
  latencies, credit-stall times, queue depths), queried by label; all of
  them are :class:`Reservoir` objects, one sample store with the one
  quantile rule (:func:`~repro.obs.timeseries.nearest_rank`);
* **rate meters** — amounts bucketed into fixed simulated-time windows
  (delivered bytes per link per millisecond), from which MB/s series fall
  out; a meter is a :class:`~repro.obs.timeseries.RateSeries`, the one
  windowed sum;
* **federated primitives** — the pre-existing
  :class:`~repro.simkernel.monitor.Counters`,
  :class:`~repro.hardware.memory.CopyMeter` and workload
  :class:`Reservoir` objects scattered through the stack, adopted here
  (not copied) under stable labels so one object can answer "where did
  the bytes/copies/stalls go in *this* run".  :class:`RunStats` is the
  base of every per-run stats object that federates this way.

Everything here is bookkeeping-only: recording never touches the event
heap, so metrics add zero simulated time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.hardware.memory import CopyMeter
from repro.obs.timeseries import (
    MetricKey,
    RateSeries,
    _key,
    nearest_rank,
    render_key,
)
from repro.simkernel.monitor import Counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment

#: Default rate-meter window: one simulated millisecond.
DEFAULT_WINDOW_NS: int = 1_000_000


class Reservoir:
    """A named, labelled sample store with deterministic quantiles: every
    histogram of the registry (:meth:`Metrics.histogram`) and every
    per-run stats reservoir (:meth:`RunStats.reservoir`).

    Unbounded (scenario runs are small).  Quantiles are
    :func:`~repro.obs.timeseries.nearest_rank` on the sorted samples, so a
    summary is a pure function of the recorded values — no floating-point
    order dependence.
    """

    def __init__(self, name: str, labels: Optional[dict[str, str]] = None):
        self.name = name
        self.labels: dict[str, str] = dict(labels or {})
        self.samples: list[int] = []
        self.total = 0

    def record(self, value: int) -> None:
        """Add one sample."""
        self.total += value
        self.samples.append(value)

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return len(self.samples)

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile ``p`` in [0, 100] (raises when empty)."""
        if not self.samples:
            raise ValueError(f"{self.name!r} has no samples")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        return nearest_rank(sorted(self.samples), p)

    @property
    def p50(self) -> int:
        """Median (nearest rank)."""
        return self.percentile(50)

    @property
    def p95(self) -> int:
        """95th percentile (nearest rank)."""
        return self.percentile(95)

    @property
    def p99(self) -> int:
        """99th percentile (nearest rank)."""
        return self.percentile(99)

    @property
    def mean(self) -> float:
        """Arithmetic mean of everything recorded (raises when empty)."""
        if not self.samples:
            raise ValueError(f"{self.name!r} has no samples")
        return self.total / len(self.samples)

    def summary(self) -> dict:
        """Deterministic summary dict (``None`` quantiles when empty)."""
        empty = not self.samples
        return {
            "count": self.count,
            "mean_ns": None if empty else round(self.mean, 1),
            "p50_ns": None if empty else self.p50,
            "p95_ns": None if empty else self.p95,
            "p99_ns": None if empty else self.p99,
            "max_ns": None if empty else max(self.samples),
        }

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {render_key(self.name, self.labels)!r} "
                f"n={self.count}>")


class Metrics:
    """Per-cluster registry federating every quantitative signal.

    Histograms and meters are created on first use (get-or-create by name
    plus label set); existing :class:`Counters` / :class:`CopyMeter`
    instances are adopted via the ``register_*`` methods.  All query
    results are deterministically ordered.
    """

    def __init__(self, env: Optional["Environment"] = None):
        self.env = env
        self._histograms: dict[MetricKey, Reservoir] = {}
        self._meters: dict[MetricKey, RateSeries] = {}
        self._counters: dict[str, Counters] = {}
        self._copy_meters: dict[str, CopyMeter] = {}

    # -- creation -------------------------------------------------------------
    def histogram(self, name: str, **labels: str) -> Reservoir:
        """Get or create the histogram ``name`` with this exact label set."""
        key = _key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Reservoir(name, dict(key[1]))
        return hist

    def meter(self, name: str, window_ns: int = DEFAULT_WINDOW_NS,
              **labels: str) -> RateSeries:
        """Get or create the rate meter ``name`` with this exact label set
        (an existing meter must have been created with the same window):
        a :class:`~repro.obs.timeseries.RateSeries` on this registry's
        clock, marked with ``observe(amount, at=None)``."""
        if self.env is None:
            raise RuntimeError(
                "rate meters need an environment clock; build this Metrics "
                "with Metrics(env) (Cluster.observe() does)"
            )
        key = _key(name, labels)
        meter = self._meters.get(key)
        if meter is None:
            meter = self._meters[key] = RateSeries(self.env, name, window_ns,
                                                   dict(key[1]))
        elif meter.interval_ns != window_ns:
            raise ValueError(
                f"meter {render_key(name, meter.labels)!r} already exists "
                f"with a {meter.interval_ns} ns window, not {window_ns} ns")
        return meter

    # -- federation ------------------------------------------------------------
    def register_counters(self, label: str, counters: Counters) -> None:
        """Adopt an existing Counters bag under ``label``."""
        if label in self._counters:
            raise ValueError(f"counters {label!r} already registered")
        self._counters[label] = counters

    def register_histogram(self, reservoir: Reservoir) -> None:
        """Adopt an existing reservoir as the histogram of its name and
        labels: every sample is recorded once, by its owner."""
        key = _key(reservoir.name, reservoir.labels)
        if key in self._histograms:
            raise ValueError(f"histogram {reservoir.name!r} already exists")
        self._histograms[key] = reservoir

    def register_copy_meter(self, label: str, meter: CopyMeter) -> None:
        """Adopt an existing CopyMeter under ``label``."""
        if label in self._copy_meters:
            raise ValueError(f"copy meter {label!r} already registered")
        self._copy_meters[label] = meter

    # -- queries -----------------------------------------------------------------
    def histograms(self, name: Optional[str] = None,
                   **labels: str) -> list[Reservoir]:
        """Histograms matching ``name`` (if given) and the label subset."""
        return _matching(self._histograms, name, labels)

    def meters(self, name: Optional[str] = None,
               **labels: str) -> list[RateSeries]:
        """Rate meters matching ``name`` (if given) and the label subset."""
        return _matching(self._meters, name, labels)

    def counter(self, label: str) -> Counters:
        """The Counters bag registered under ``label``."""
        return self._counters[label]

    def copy_bytes_by_label(self) -> dict[str, dict[str, int]]:
        """``{owner: {copy label: bytes}}`` across all registered CopyMeters."""
        return {
            owner: dict(sorted(meter.by_label.items()))
            for owner, meter in sorted(self._copy_meters.items())
        }

    def as_dict(self) -> dict:
        """A flat, deterministic summary of everything registered."""
        out: dict = {"histograms": {}, "meters": {}, "counters": {},
                     "copy_bytes": self.copy_bytes_by_label()}
        for hist in self.histograms():
            label = render_key(hist.name, hist.labels)
            out["histograms"][label] = {
                "count": hist.count, "total": hist.total,
                "p50": hist.p50 if hist.count else None,
                "p99": hist.p99 if hist.count else None,
            }
        for meter in self.meters():
            label = render_key(meter.name, meter.labels)
            out["meters"][label] = {"total": meter.total,
                                    "mean_rate_mbs": meter.mean_rate_mbs()}
        for owner, counters in sorted(self._counters.items()):
            out["counters"][owner] = dict(sorted(counters.as_dict().items()))
        return out


class RunStats:
    """What every per-run stats object shares: the clock, a name, a
    :class:`~repro.simkernel.monitor.Counters` bag, named reservoirs, and
    federation into an observer's :class:`Metrics` — counters and
    reservoirs are adopted, so an observed run records each sample once.

    Subclasses add their ``note_*`` recorders and a ``report()``.
    """

    #: Windowed time series and per-shard sub-stats; only request/response
    #: stats (``WorkloadStats``) ever carry them.
    timeseries = None
    shards: Sequence["RunStats"] = ()

    def __init__(self, env: "Environment", name: str):
        self.env = env
        self.name = name
        self.counters = Counters()
        self._reservoirs: list[Reservoir] = []
        self._metrics: Optional[Metrics] = None

    def reservoir(self, suffix: str) -> Reservoir:
        """Create the reservoir ``<name>.<suffix>`` (federated with the
        rest of this object)."""
        reservoir = Reservoir(f"{self.name}.{suffix}")
        self._reservoirs.append(reservoir)
        return reservoir

    def federate(self, metrics: Metrics) -> None:
        """Register the counters and reservoirs with an observer's
        metrics registry under ``self.name``."""
        metrics.register_counters(self.name, self.counters)
        for reservoir in self._reservoirs:
            metrics.register_histogram(reservoir)
        self._metrics = metrics

    def fault_window_report(self, windows) -> Optional[dict]:
        """Per-fault-episode scoring, for stats that have windowed series
        to score (``None`` = no ``fault_windows`` report section)."""
        return None


def _matching(instruments: dict, name: Optional[str],
              labels: dict[str, str]) -> list:
    """``instruments`` named ``name`` (if given) that carry ``labels``, in
    key order."""
    return [inst for key, inst in sorted(instruments.items())
            if (name is None or key[0] == name)
            and all(inst.labels.get(k) == str(v) for k, v in labels.items())]
