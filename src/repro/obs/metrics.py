"""The metrics registry: histograms, rate meters, and counter bags.

One :class:`Metrics` object per run collects every quantitative signal
the observability layer and the run's stats produce:

* **histograms** — named distributions with label sets (per-stage packet
  latencies, credit-stall times, queue depths), queried by label; all of
  them are :class:`Reservoir` objects, one sample store with the one
  quantile rule (:func:`~repro.obs.timeseries.nearest_rank`);
* **rate meters** — amounts bucketed into fixed simulated-time windows
  (bytes serialised onto each link per millisecond, dropped packets
  included), MB/s series; a meter is a
  :class:`~repro.obs.timeseries.RateSeries`, the one windowed sum;
* **counter bags** — one :class:`collections.Counter` per label
  (:meth:`Metrics.counters`), plus the fault injector's bag and each
  node's :class:`~repro.hardware.memory.CopyMeter`, read under stable
  labels so one object can answer "where did the bytes/copies/stalls go
  in *this* run".

:class:`RunStats`, the base of every per-run stats object, owns the run's
registry and counts straight into it; an observed run's observer adopts
that registry (``Observer(stats.metrics)``), so every sample is recorded
once and nothing is registered after the fact.

Everything here is bookkeeping-only: recording never touches the event
heap, so metrics add zero simulated time.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Optional, Sequence

from repro.hardware.memory import CopyMeter
from repro.obs.timeseries import (
    MetricKey,
    RateSeries,
    _key,
    nearest_rank,
    render_key,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment

#: Default rate-meter window: one simulated millisecond.
DEFAULT_WINDOW_NS: int = 1_000_000


class Reservoir:
    """A named, labelled sample store with deterministic quantiles: every
    histogram of the registry (:meth:`Metrics.histogram`) and every
    per-run stats reservoir (:meth:`RunStats.reservoir`).

    Unbounded (scenario runs are small).  The samples are ints in one
    ``array("q")``: a float sample raises ``TypeError`` and one outside
    ``[-2⁶³, 2⁶³)`` ``OverflowError``, so none is rounded or wrapped.
    Quantiles are :func:`~repro.obs.timeseries.nearest_rank` on the sorted
    samples, so a summary is a pure function of the recorded values — no
    floating-point order dependence.
    """

    def __init__(self, name: str, labels: Optional[dict[str, str]] = None):
        self.name = name
        self.labels: dict[str, str] = dict(labels or {})
        self.samples = array("q")
        #: Add one sample: the sample array's own ``append``, so recording
        #: is one C call (the total is summed when read) and a sample costs
        #: 8 B, not a pointer to a boxed int.
        self.record = self.samples.append

    @property
    def total(self) -> int:
        """Sum of every sample."""
        return sum(self.samples)

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
            "p95_ns": None if empty else self.percentile(95),
            "p99_ns": None if empty else self.p99,
            "max_ns": None if empty else max(self.samples),
        }

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {render_key(self.name, self.labels)!r} "
                f"n={self.count}>")


class Metrics:
    """Per-run registry of every quantitative signal.

    Histograms, meters and counter bags are created on first use
    (get-or-create by name plus label set); each node's
    :class:`CopyMeter` is adopted via :meth:`register_copy_meter`, and the
    fault counters are read from ``env.faults``.  All query results are
    deterministically ordered.
    """

    def __init__(self, env: Optional["Environment"] = None):
        self.env = env
        self._histograms: dict[MetricKey, Reservoir] = {}
        self._meters: dict[MetricKey, RateSeries] = {}
        self._counters: defaultdict[str, Counter] = defaultdict(Counter)
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

    def counters(self, label: str) -> Counter:
        """Get or create the counter bag ``label``."""
        return self._counters[label]

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

    def copy_bytes_by_label(self) -> dict[str, dict[str, int]]:
        """``{owner: {copy label: bytes}}`` across all registered CopyMeters."""
        return {
            owner: dict(sorted(meter.by_label.items()))
            for owner, meter in sorted(self._copy_meters.items())
        }

    def as_dict(self) -> dict:
        """A flat, deterministic summary of everything registered, plus
        the fault injector's counters under ``faults`` when one is
        attached to this registry's environment."""
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
        counters = dict(self._counters)
        if self.env is not None and self.env.faults is not None:
            counters["faults"] = self.env.faults.counters
        for owner, bag in sorted(counters.items()):
            out["counters"][owner] = dict(sorted(bag.items()))
        return out


class RunStats:
    """What every per-run stats object shares: the clock, a name, and the
    run's :class:`Metrics` registry — a counter bag
    (``metrics.counters(name)``) and named reservoirs in it.  Shard
    sub-stats pass their parent's registry; an observed run's observer
    adopts it, so each sample is recorded once.

    Subclasses add their ``note_*`` recorders and a ``report()``.
    """

    #: Windowed time series and per-shard sub-stats; only request/response
    #: stats (``WorkloadStats``) ever carry them.
    timeseries = None
    shards: Sequence["RunStats"] = ()

    def __init__(self, env: "Environment", name: str,
                 metrics: Optional[Metrics] = None):
        self.env = env
        self.name = name
        self.metrics = metrics if metrics is not None else Metrics(env)
        self.counters = self.metrics.counters(name)

    def reservoir(self, suffix: str) -> Reservoir:
        """The registry's histogram ``<name>.<suffix>``."""
        return self.metrics.histogram(f"{self.name}.{suffix}")

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
