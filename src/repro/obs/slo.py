"""Declarative SLOs, error-budget burn rates, and breach detection.

The sensing substrate a failover supervisor needs: express a service
target as data (:class:`SloSpec`), evaluate it window-by-window over a
:class:`~repro.obs.timeseries.TimeSeriesBank`, and get deterministic
health events (:class:`SloEvent`) whenever the windowed error-budget
burn rate crosses 1.0 — i.e. whenever the service is failing its target
*right now*, not merely on average over the whole run.

The model is the standard SRE error-budget formulation, unified over
both SLO kinds by per-window good/bad request counts:

* ``availability`` — a request is *bad* if it was dropped (shed,
  expired, or abandoned by the client);
* ``latency`` — a completed request is *bad* if its end-to-end latency
  exceeded ``threshold_ns``.

With ``budget = 1 - target``, a window's burn rate is
``(bad / total) / budget``: burn 1.0 means failing at exactly the rate
the budget tolerates, burn 10 means burning a month's budget in three
days.  :class:`BurnRateDetector` turns the per-window burns into
``breach_start`` / ``breach_end`` edge events; it is feedable online
(window by window, usable by an in-simulation supervisor) and is a pure
function of the count stream, so reruns produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.timeseries import TimeSeriesBank

SLO_KINDS = ("availability", "latency")


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective.

    ``target`` is the required good fraction (e.g. ``0.99``); for
    ``latency`` SLOs, ``threshold_ns`` defines what counts as good and
    ``target`` is the fraction that must meet it (so ``target=0.99,
    threshold_ns=150_000`` reads "p99 under 150 us").  ``shard`` narrows
    the spec to one shard's traffic (``None`` = aggregate).
    """

    name: str
    kind: str
    target: float
    threshold_ns: Optional[int] = None
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"kind must be one of {SLO_KINDS}, got {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be in (0, 1), got {self.target}")
        if self.kind == "latency" and not self.threshold_ns:
            raise ValueError("latency SLOs need a positive threshold_ns")

    @property
    def budget(self) -> float:
        """The error budget: tolerated bad fraction (``1 - target``)."""
        return 1.0 - self.target

    def as_dict(self) -> dict:
        """Deterministic JSON fragment of the spec."""
        return {"name": self.name, "kind": self.kind, "target": self.target,
                "threshold_ns": self.threshold_ns, "shard": self.shard}


@dataclass(frozen=True)
class SloEvent:
    """One health-state edge: the burn rate crossed 1.0 at ``t_ns``."""

    t_ns: int
    slo: str
    kind: str            # "breach_start" | "breach_end"
    burn_rate: float
    bad: int
    total: int

    def as_dict(self) -> dict:
        """Deterministic JSON fragment of the event."""
        return {"t_ns": self.t_ns, "slo": self.slo, "kind": self.kind,
                "burn_rate": round(self.burn_rate, 4),
                "bad": self.bad, "total": self.total}


class BurnRateDetector:
    """Windowed burn-rate threshold detector for one :class:`SloSpec`.

    Feed per-window ``(good, bad)`` counts in window order; each call
    returns the edge events that window produced (none, a
    ``breach_start``, or a ``breach_end``).  Empty windows (no traffic)
    carry the previous health state forward — no traffic is no evidence
    of recovery.
    """

    def __init__(self, spec: SloSpec):
        self.spec = spec
        self.in_breach = False
        self.events: list[SloEvent] = []
        self.windows = 0
        self.breached_windows = 0
        self.total_good = 0
        self.total_bad = 0
        self.max_burn_rate = 0.0

    def feed(self, t_ns: int, good: int, bad: int) -> list[SloEvent]:
        """Evaluate the window starting at ``t_ns``; returns new edge events."""
        self.windows += 1
        self.total_good += good
        self.total_bad += bad
        total = good + bad
        if total == 0:
            return []
        burn = (bad / total) / self.spec.budget
        self.max_burn_rate = max(self.max_burn_rate, burn)
        new: list[SloEvent] = []
        if burn > 1.0:
            self.breached_windows += 1
            if not self.in_breach:
                self.in_breach = True
                new.append(SloEvent(t_ns, self.spec.name, "breach_start",
                                    burn, bad, total))
        elif self.in_breach:
            self.in_breach = False
            new.append(SloEvent(t_ns, self.spec.name, "breach_end",
                                burn, bad, total))
        self.events.extend(new)
        return new

    def budget_consumed(self) -> float:
        """Fraction of the whole-run error budget spent (1.0 = all of it)."""
        total = self.total_good + self.total_bad
        if total == 0:
            return 0.0
        return (self.total_bad / total) / self.spec.budget

    def result(self) -> dict:
        """Deterministic summary fragment for the run report."""
        return {
            "spec": self.spec.as_dict(),
            "windows": self.windows,
            "breached_windows": self.breached_windows,
            "good": self.total_good,
            "bad": self.total_bad,
            "max_burn_rate": round(self.max_burn_rate, 4),
            "budget_consumed": round(self.budget_consumed(), 4),
            "in_breach_at_end": self.in_breach,
            "events": [e.as_dict() for e in self.events],
        }

    def __repr__(self) -> str:
        return (f"<BurnRateDetector {self.spec.name!r} "
                f"windows={self.windows} breached={self.breached_windows}>")


def window_counts(bank: "TimeSeriesBank", spec: SloSpec,
                  windows: Optional[range] = None) -> list[tuple[int, int, int]]:
    """Per-window ``(t_ns, good, bad)`` for ``spec`` from a stats bank.

    Reads the series :class:`~repro.workloads.stats.WorkloadStats`
    records (``completed`` / ``drops`` rates, ``latency_ns`` quantiles;
    shard-scoped specs read the ``shard=<i>``-labelled variants) and
    walks ``windows`` — by default the bank's whole window range —
    *densely*, so quiet windows appear with zero counts and the
    detector's state machine sees every tick.  An in-simulation reader
    (the replication supervisor) passes the windows completed since its
    last read.
    """
    if windows is None:
        span = bank.window_range()
        if span is None:
            return []
        windows = range(span[0], span[1] + 1)
    labels = {} if spec.shard is None else {"shard": spec.shard}
    interval_ns = bank.interval_ns
    if spec.kind == "availability":
        completed = bank.rate("completed", **labels)
        drops = bank.rate("drops", **labels)
        return [(i * interval_ns, completed.window_sum(i), drops.window_sum(i))
                for i in windows]
    latency = bank.quantile("latency_ns", **labels)
    threshold = spec.threshold_ns
    rows = []
    for i in windows:
        values = latency.window_values(i)
        bad = sum(1 for v in values if v > threshold)
        rows.append((i * interval_ns, len(values) - bad, bad))
    return rows


def evaluate_slos(bank: "TimeSeriesBank",
                  specs: Sequence[SloSpec]) -> dict:
    """Run every spec's detector over the bank; returns the report dict.

    The result maps spec name to :meth:`BurnRateDetector.result` — a
    pure function of the bank's contents, so two identical runs produce
    byte-identical SLO reports.
    """
    out = {}
    for spec in specs:
        detector = BurnRateDetector(spec)
        for t_ns, good, bad in window_counts(bank, spec):
            detector.feed(t_ns, good, bad)
        out[spec.name] = detector.result()
    return {"interval_ns": bank.interval_ns,
            "slos": dict(sorted(out.items()))}
