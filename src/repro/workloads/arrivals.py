"""Seedable arrival processes: when does each client issue its next request?

An arrival spec is pure data (a frozen dataclass, like
:class:`repro.faults.plan.FaultPlan`); :func:`gap_stream` interprets it as
an infinite iterator of integer nanosecond *gaps*.  Open-loop specs space
request issue times; closed-loop specs space think times between a response
and the next request.

Determinism contract (mirrors ``repro/faults``): every random draw comes
from a per-client stream derived from ``(seed, client name)`` — never from
wall clock or a shared cursor — so identical scenario specs yield identical
traffic, and adding a client never shifts another client's draws.

* :class:`OpenLoop` — open-loop Poisson (or fixed-interval) arrivals at
  ``rate_rps`` requests/second from each of ``population`` clients,
  collapsed into one stream.  Requests are issued on schedule whether or
  not earlier ones have completed: offered load is independent of service
  capacity, which is what exposes the load-latency saturation knee.  The
  superposition of K Poisson processes is a Poisson process at K times the
  rate, so a single generator node can stand in for 10^5 simulated
  clients.
* :class:`ClosedLoop` — each client waits for its response, then thinks for
  exactly ``think_ns``.  Offered load self-limits to service capacity.
* :class:`Bursty` — on/off modulated Poisson: ``on_ns`` of arrivals at
  ``rate_rps`` followed by ``off_ns`` of silence, repeating.  The incast
  and burst-absorption scenarios use it.

Every exponential gap comes from one batched NumPy draw per
:data:`DRAW_BATCH` gaps instead of one Python-level draw per request;
the batch never changes the drawn sequence.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Union

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def client_rng(seed: int, client: str) -> np.random.Generator:
    """The deterministic RNG stream for one client of one scenario."""
    import numpy as np
    return np.random.default_rng((seed, zlib.crc32(client.encode())))


@dataclass(frozen=True)
class OpenLoop:
    """Open-loop arrivals at ``rate_rps`` requests/second from each of
    ``population`` clients, as one stream.

    ``poisson=True`` draws exponential inter-arrival gaps (a Poisson
    process, statistically exact for any population by superposition);
    ``False`` issues on the fixed aggregate interval — useful when a sweep
    wants offered load exact rather than averaged, and not an interleaving
    of ``population`` phase-locked clocks.
    """

    rate_rps: float
    poisson: bool = True
    population: int = 1

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")
        if self.population < 1:
            raise ValueError(
                f"population must be positive, got {self.population}")

    @property
    def mean_gap_ns(self) -> float:
        return 1e9 / (self.rate_rps * self.population)


@dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop think time: each client thinks for exactly ``think_ns``.
    ``think_ns=0`` is the back-to-back case: the next request leaves the
    instant the response lands.
    """

    think_ns: int = 0

    def __post_init__(self) -> None:
        if self.think_ns < 0:
            raise ValueError(f"think_ns must be non-negative, got {self.think_ns}")


@dataclass(frozen=True)
class Bursty:
    """On/off modulated Poisson: ``rate_rps`` for ``on_ns``, silent for
    ``off_ns``, repeating.  The first request of each burst arrives at the
    burst start."""

    rate_rps: float
    on_ns: int
    off_ns: int

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")
        if self.on_ns <= 0:
            raise ValueError(f"on_ns must be positive, got {self.on_ns}")
        if self.off_ns < 0:
            raise ValueError(f"off_ns must be non-negative, got {self.off_ns}")


ArrivalSpec = Union[OpenLoop, ClosedLoop, Bursty]

#: Exponential gaps drawn per NumPy call.  A call's fixed cost is about
#: four scalar draws; at 256 a gap costs ~1/20 of a scalar draw (within
#: 1.6x of a 4096 batch), and no client holds more than 256 gaps ahead.
DRAW_BATCH = 256


def _exponential_gaps(rng: np.random.Generator, mean: float) -> Iterator[int]:
    import numpy as np
    while True:
        # np.rint rounds half-to-even exactly like round(), so the stream
        # is max(1, round(rng.exponential(mean))) draw for draw (pinned by
        # the arrivals tests).
        gaps = np.rint(rng.exponential(mean, DRAW_BATCH)).astype(np.int64)
        np.maximum(gaps, 1, out=gaps)
        yield from gaps.tolist()


def _bursty_gaps(spec: Bursty, draws: Iterator[int]) -> Iterator[int]:
    # Position within the current on-window; gaps that cross its end are
    # deferred past the off-window to the start of the next burst.
    at = 0
    for gap in draws:
        if at + gap < spec.on_ns:
            at += gap
            yield gap
        else:
            yield (spec.on_ns - at) + spec.off_ns
            at = 0


def gap_stream(spec: ArrivalSpec, seed: int, client: str) -> Iterator[int]:
    """An infinite iterator of nanosecond gaps for one client.

    The stream is a pure function of ``(spec, seed, client)``; two calls
    with the same arguments yield identical sequences.
    """
    rng = client_rng(seed, client)
    if isinstance(spec, OpenLoop):
        if spec.poisson:
            return _exponential_gaps(rng, spec.mean_gap_ns)
        return itertools.repeat(max(1, round(spec.mean_gap_ns)))
    if isinstance(spec, ClosedLoop):
        return itertools.repeat(spec.think_ns)
    if isinstance(spec, Bursty):
        return _bursty_gaps(spec, _exponential_gaps(rng, 1e9 / spec.rate_rps))
    raise TypeError(f"not an arrival spec: {spec!r}")
