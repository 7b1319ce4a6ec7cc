"""The metrics registry: histograms, rate meters, and federated counters.

One :class:`Metrics` object per cluster collects every quantitative signal
the observability layer produces:

* **histograms** — named distributions with label sets (per-stage packet
  latencies, credit-stall times, queue depths), queried by label; all of
  them are :class:`Reservoir` objects, one sample store with the one
  quantile rule (:func:`nearest_rank`);
* **rate meters** — amounts bucketed into fixed simulated-time windows
  (delivered bytes per link per millisecond), from which MB/s series fall
  out;
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

import math
from typing import TYPE_CHECKING, Optional, Sequence

from repro.hardware.memory import CopyMeter
from repro.simkernel.monitor import Counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment

#: Default rate-meter window: one simulated millisecond.
DEFAULT_WINDOW_NS: int = 1_000_000

#: Type of the internal (name, sorted-labels) registry keys.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, str]) -> MetricKey:
    """The registry key of ``name`` + ``labels``, label values normalised
    to ``str`` — an instrument's own ``labels`` are rebuilt from this key,
    so what a query compares against is what the key holds.  Label sets
    of size 0 and 1 (every per-packet lookup) skip the sort."""
    if not labels:
        return (name, ())
    if len(labels) == 1:
        (k, v), = labels.items()
        return (name, ((k, str(v)),))
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def nearest_rank(ordered: Sequence[int], p: float) -> int:
    """Nearest-rank percentile ``p`` of a sorted, non-empty sequence:
    ``rank = max(1, ceil(p/100 * n))`` — no interpolation, so the answer
    is always a recorded value
    (``numpy.percentile(..., method="inverted_cdf")`` agrees).  The one
    quantile rule every reservoir, histogram and windowed series uses."""
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


class Reservoir:
    """A streaming sample reservoir with deterministic quantiles.

    Unbounded by default (scenario runs are small); give ``capacity`` to
    switch to Vitter's Algorithm R with a seeded RNG, keeping a uniform
    sample of everything seen — still a pure function of the value stream,
    so reruns stay bit-identical.  Quantiles are :func:`nearest_rank` on
    the sorted samples, so a summary is a pure function of the recorded
    values — no floating-point order dependence.
    """

    def __init__(self, name: str, capacity: Optional[int] = None, seed: int = 0):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.name = name
        self.labels: dict[str, str] = {}
        self.capacity = capacity
        self.samples: list[int] = []
        self.count = 0
        self.total = 0
        self._rng = None
        if capacity is not None:
            import numpy as np
            self._rng = np.random.default_rng(seed)

    def record(self, value: int) -> None:
        """Add one sample (reservoir-sampled once past capacity)."""
        self.count += 1
        self.total += value
        if self.capacity is None or len(self.samples) < self.capacity:
            self.samples.append(value)
            return
        slot = int(self._rng.integers(0, self.count))
        if slot < self.capacity:
            self.samples[slot] = value

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
        if self.count == 0:
            raise ValueError(f"{self.name!r} has no samples")
        return self.total / self.count

    def summary(self) -> dict:
        """Deterministic summary dict (``None`` quantiles when empty)."""
        empty = not self.samples
        return {
            "count": self.count,
            "mean_ns": None if self.count == 0 else round(self.mean, 1),
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


class Histogram(Reservoir):
    """An unbounded :class:`Reservoir` with a label set — what
    :meth:`Metrics.histogram` creates, queried by label."""

    def __init__(self, name: str, labels: Optional[dict[str, str]] = None):
        super().__init__(name)
        self.labels = dict(labels or {})


class RateMeter:
    """Amounts bucketed into fixed windows of simulated time.

    ``mark(amount, at=now)`` adds to the bucket covering ``at``; the series of
    (window start, amount) pairs yields delivered-rate curves over the run
    (e.g. link MB/s per simulated millisecond).
    """

    def __init__(self, env: "Environment", name: str,
                 window_ns: int = DEFAULT_WINDOW_NS,
                 labels: Optional[dict[str, str]] = None):
        if window_ns < 1:
            raise ValueError(f"window must be >= 1 ns, got {window_ns}")
        self.env = env
        self.name = name
        self.window_ns = window_ns
        self.labels: dict[str, str] = dict(labels or {})
        self.total: int = 0
        self._buckets: dict[int, int] = {}

    def mark(self, amount: int = 1, at: Optional[int] = None) -> None:
        """Add ``amount`` to the bucket of the window covering ``at``."""
        index = (self.env.now if at is None else at) // self.window_ns
        self._buckets[index] = self._buckets.get(index, 0) + amount
        self.total += amount

    def series(self) -> list[tuple[int, int]]:
        """Sorted (window_start_ns, amount) pairs for non-empty windows."""
        return [(index * self.window_ns, amount)
                for index, amount in sorted(self._buckets.items())]

    def mean_rate_mbs(self) -> float:
        """Mean rate in MB/s (10^6 bytes/s) over the spanned windows."""
        if not self._buckets:
            return 0.0
        n_windows = max(self._buckets) - min(self._buckets) + 1
        elapsed_s = n_windows * self.window_ns / 1e9
        return self.total / elapsed_s / 1e6

    def __repr__(self) -> str:
        return (f"<RateMeter {self.name!r} total={self.total} "
                f"windows={len(self._buckets)}>")


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
        self._meters: dict[MetricKey, RateMeter] = {}
        self._counters: dict[str, Counters] = {}
        self._copy_meters: dict[str, CopyMeter] = {}

    # -- creation -------------------------------------------------------------
    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get or create the histogram ``name`` with this exact label set."""
        key = _key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram(name, dict(key[1]))
        return hist

    def meter(self, name: str, window_ns: int = DEFAULT_WINDOW_NS,
              **labels: str) -> RateMeter:
        """Get or create the rate meter ``name`` with this exact label set
        (an existing meter must have been created with the same window)."""
        if self.env is None:
            raise RuntimeError(
                "rate meters need an environment clock; build this Metrics "
                "with Metrics(env) (Cluster.observe() does)"
            )
        key = _key(name, labels)
        meter = self._meters.get(key)
        if meter is None:
            meter = self._meters[key] = RateMeter(self.env, name, window_ns,
                                                  dict(key[1]))
        elif meter.window_ns != window_ns:
            raise ValueError(
                f"meter {render_key(name, meter.labels)!r} already exists "
                f"with a {meter.window_ns} ns window, not {window_ns} ns")
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
                   **labels: str) -> list[Histogram]:
        """Histograms matching ``name`` (if given) and the label subset."""
        return sorted(
            (h for h in self._histograms.values()
             if (name is None or h.name == name) and _subset(labels, h.labels)),
            key=lambda h: (h.name, sorted(h.labels.items())),
        )

    def meters(self, name: Optional[str] = None, **labels: str) -> list[RateMeter]:
        """Rate meters matching ``name`` (if given) and the label subset."""
        return sorted(
            (m for m in self._meters.values()
             if (name is None or m.name == name) and _subset(labels, m.labels)),
            key=lambda m: (m.name, sorted(m.labels.items())),
        )

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


def _subset(wanted: dict[str, str], have: dict[str, str]) -> bool:
    return all(have.get(k) == str(v) for k, v in wanted.items())


def render_key(name: str, labels: dict[str, str]) -> str:
    """``name{a=1,b=2}`` — the stable key syntax of every metrics and
    time-series export."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"
