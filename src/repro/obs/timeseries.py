"""Windowed time series sampled at fixed simulated-time intervals.

Aggregate statistics (a whole-run p99, a total drop count) cannot show
*when* a service degraded — a 2 ms NicStall inside a 40 ms run vanishes
into the average.  A :class:`TimeSeriesBank` buckets observations into
fixed ``interval_ns`` windows of simulated time, giving every signal a
time axis:

* :class:`RateSeries` — counts/amounts per window (completions, drops,
  bytes put on a link): the windowed goodput view;
* :class:`GaugeSeries` — last and max of a sampled level per window
  (queue depth);
* :class:`QuantileSeries` — full sample list per window with
  deterministic nearest-rank quantiles (windowed p50/p99 latency).

A bank keys its series as the :class:`~repro.obs.metrics.Metrics`
registry keys its instruments (:func:`_key`), whose rate meters are
:class:`RateSeries` too.

Everything is bookkeeping-only: recording never touches the event heap,
so time series obey the observability zero-cost invariant (bit-identical
simulated results with the bank on or off).  Buckets are sparse — only
windows that saw at least one observation materialise — and every
summary is a pure function of the observation stream, so reruns export
byte-identical JSON.  The :mod:`repro.obs.slo` detectors consume these
windows to compute error-budget burn rates.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment

#: Type of the (name, sorted-labels) instrument keys of the metrics
#: registry and of every :class:`TimeSeriesBank`.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, str]) -> MetricKey:
    """The instrument key of ``name`` + ``labels``, label values normalised
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


def render_key(name: str, labels: dict[str, str]) -> str:
    """``name{a=1,b=2}`` — the stable key syntax of every metrics and
    time-series export."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class _Series:
    """Shared machinery: sparse per-window buckets keyed by window index."""

    kind = "base"

    def __init__(self, env: "Environment", name: str, interval_ns: int,
                 labels: dict[str, str]):
        if interval_ns < 1:
            raise ValueError(f"window must be >= 1 ns, got {interval_ns}")
        self.env = env
        self.name = name
        self.interval_ns = interval_ns
        self.labels = labels
        self._buckets: dict[int, object] = {}

    def windows(self) -> list[int]:
        """Sorted indices of windows that saw at least one observation."""
        return sorted(self._buckets)

    def points(self) -> list[list]:
        """``[window start ns, ...summary...]`` rows, one per live window."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {render_key(self.name, self.labels)!r} "
                f"windows={len(self._buckets)}>")


class RateSeries(_Series):
    """Per-window sums of a counted quantity (requests, bytes, drops) —
    the one windowed sum: a bank's rate series and a registry meter
    (:meth:`~repro.obs.metrics.Metrics.meter`, e.g. the bytes serialised
    onto a link per simulated millisecond, dropped ones included) alike."""

    kind = "rate"

    def observe(self, amount: int = 1, at: Optional[int] = None) -> None:
        """Add ``amount`` to the sum of the window covering ``at``
        (default: now)."""
        i = (self.env.now if at is None else at) // self.interval_ns
        self._buckets[i] = self._buckets.get(i, 0) + amount

    def window_sum(self, window: int) -> int:
        """The sum recorded in ``window`` (0 for untouched windows)."""
        return self._buckets.get(window, 0)

    @property
    def total(self) -> int:
        """Sum over all windows."""
        return sum(self._buckets.values())

    def points(self) -> list[list]:
        return [[i * self.interval_ns, self._buckets[i]]
                for i in sorted(self._buckets)]

    def mean_rate_mbs(self) -> float:
        """Mean rate in MB/s (10^6 bytes/s) over the spanned windows."""
        if not self._buckets:
            return 0.0
        n_windows = max(self._buckets) - min(self._buckets) + 1
        return self.total / (n_windows * self.interval_ns / 1e9) / 1e6


class GaugeSeries(_Series):
    """Per-window last/max of a sampled level (queue depth)."""

    kind = "gauge"

    def observe(self, level: int) -> None:
        """Sample the gauge at ``env.now``."""
        i = self.env.now // self.interval_ns
        entry = self._buckets.get(i)
        if entry is None:
            self._buckets[i] = [level, level]
        else:
            entry[0] = level
            entry[1] = max(entry[1], level)

    def points(self) -> list[list]:
        return [[i * self.interval_ns] + list(self._buckets[i])
                for i in sorted(self._buckets)]


class QuantileSeries(_Series):
    """Per-window sample lists with :func:`nearest_rank`
    quantiles, so a windowed p99 agrees with the aggregate reservoir when
    a run fits one window."""

    kind = "quantile"

    def observe(self, value: int) -> None:
        """Add one sample to the current window."""
        self._buckets.setdefault(self.env.now // self.interval_ns,
                                 []).append(value)

    def window_values(self, window: int) -> list[int]:
        """The raw samples of ``window`` (empty for untouched windows)."""
        return list(self._buckets.get(window, []))

    def points(self) -> list[list]:
        rows = []
        for i in sorted(self._buckets):
            ordered = sorted(self._buckets[i])
            rows.append([i * self.interval_ns, len(ordered),
                         nearest_rank(ordered, 50),
                         nearest_rank(ordered, 99),
                         ordered[-1]])
        return rows


#: Column names for each series kind's point rows (after the leading
#: window-start timestamp) — recorded in the JSON so reports self-describe.
POINT_COLUMNS = {
    "rate": ["sum"],
    "gauge": ["last", "max"],
    "quantile": ["count", "p50", "p99", "max"],
}


class TimeSeriesBank:
    """Get-or-create registry of windowed series for one stats object."""

    def __init__(self, env: "Environment", interval_ns: int):
        if interval_ns < 1:
            raise ValueError(
                f"interval_ns must be positive, got {interval_ns}")
        self.env = env
        self.interval_ns = interval_ns
        self._series: dict[tuple[str, MetricKey], _Series] = {}

    def _get(self, cls, name: str, labels: dict[str, str]) -> _Series:
        key = _key(name, labels)
        series = self._series.get((cls.kind, key))
        if series is None:
            series = self._series[cls.kind, key] = cls(
                self.env, name, self.interval_ns, dict(key[1]))
        return series

    def rate(self, name: str, **labels: str) -> RateSeries:
        """The rate series ``name`` with ``labels`` (created on first use)."""
        return self._get(RateSeries, name, labels)

    def gauge(self, name: str, **labels: str) -> GaugeSeries:
        """The gauge series ``name`` with ``labels``."""
        return self._get(GaugeSeries, name, labels)

    def quantile(self, name: str, **labels: str) -> QuantileSeries:
        """The quantile series ``name`` with ``labels``."""
        return self._get(QuantileSeries, name, labels)

    def window_range(self) -> Optional[tuple[int, int]]:
        """(first, last) window index over every series, or ``None`` when
        nothing has been observed — the dense range SLO evaluation walks."""
        live = [i for s in self._series.values() for i in s.windows()]
        if not live:
            return None
        return min(live), max(live)

    def as_dict(self) -> dict:
        """Deterministic JSON fragment: every series' windowed points."""
        out: dict[str, dict] = {}
        for series in self._series.values():
            points = series.points()
            if not points:
                continue
            out[render_key(series.name, series.labels)] = {
                "kind": series.kind,
                "columns": POINT_COLUMNS[series.kind],
                "points": points,
            }
        return {"interval_ns": self.interval_ns,
                "series": dict(sorted(out.items()))}

    def __repr__(self) -> str:
        return (f"<TimeSeriesBank interval={self.interval_ns}ns "
                f"series={len(self._series)}>")
