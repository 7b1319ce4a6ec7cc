"""Fault plans: declarative, seedable schedules of fault episodes.

A :class:`FaultPlan` is pure data — a seed plus a tuple of *episodes*,
each describing one kind of trouble on one slice of the simulated
hardware over one window of simulated time:

* :class:`LinkFault` — the only way a link errs: a burst of bit errors
  (packets arrive with the CORRUPT flag set) and/or a lossy window in which
  packets are *dropped outright* (a failure FM's substrate never exhibits,
  but the software reliability shim and the resilience sweep need);
* :class:`NicStall` — the NIC firmware takes ``extra_ns`` longer per
  packet (a firmware hiccup / descriptor-ring contention episode);
* :class:`CpuSlow` — a host CPU runs slower by ``factor`` and/or with
  per-operation jitter (an overcommitted or thermally throttled host).

Plans are interpreted by :class:`repro.faults.injector.FaultInjector`,
which derives an independent deterministic RNG stream per afflicted
component from ``(seed, component name)`` — so two runs with the same
plan produce the *same* corruption/drop/stall trace, and adding an
episode on one link never shifts the random draws of another.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Optional, Union

#: "Until the end of the run" sentinel for episode windows.
FOREVER: int = 2**63 - 1


def _check_window(start_ns: int, end_ns: int) -> None:
    if start_ns < 0:
        raise ValueError(f"start_ns must be non-negative, got {start_ns}")
    if end_ns <= start_ns:
        raise ValueError(f"empty episode window [{start_ns}, {end_ns})")


@dataclass(frozen=True)
class LinkFault:
    """A fault episode on every link whose name matches ``link``.

    ``link`` is an ``fnmatch`` pattern over fabric link names
    (``link:h0->s0``, ``link:s0->h1``, ...); ``"*"`` afflicts every link.
    Within ``[start_ns, end_ns)`` each serialised packet is dropped with
    probability ``drop_rate`` and otherwise corrupted with probability
    ``1-(1-ber)^bits``.  A noisy or lossy link for a whole run is one
    episode with the default window and ``link="*"``.
    """

    link: str = "*"
    start_ns: int = 0
    end_ns: int = FOREVER
    ber: float = 0.0
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_window(self.start_ns, self.end_ns)
        if not 0.0 <= self.ber < 1.0:
            raise ValueError(f"ber must be in [0, 1), got {self.ber}")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {self.drop_rate}")
        if self.ber == 0.0 and self.drop_rate == 0.0:
            raise ValueError("a LinkFault needs ber > 0 or drop_rate > 0")

    def matches(self, link_name: str) -> bool:
        return fnmatch.fnmatchcase(link_name, self.link)

    def active(self, now: int) -> bool:
        return self.start_ns <= now < self.end_ns

    @property
    def label(self) -> str:
        """Stable episode label for windowed reports."""
        return f"link_fault:{self.link}"


@dataclass(frozen=True)
class NicStall:
    """NIC firmware slowdown: ``extra_ns`` more per packet processed.

    ``node`` selects one host's NIC (``None`` = every NIC); ``side``
    is ``"tx"``, ``"rx"`` or ``"both"``.  Overlapping episodes add up.
    """

    node: Optional[int] = None
    start_ns: int = 0
    end_ns: int = FOREVER
    extra_ns: int = 0
    side: str = "both"

    def __post_init__(self) -> None:
        _check_window(self.start_ns, self.end_ns)
        if self.extra_ns <= 0:
            raise ValueError(f"extra_ns must be positive, got {self.extra_ns}")
        if self.side not in ("tx", "rx", "both"):
            raise ValueError(f"side must be tx/rx/both, got {self.side!r}")

    def matches(self, node_id: int, side: str) -> bool:
        return ((self.node is None or self.node == node_id)
                and self.side in ("both", side))

    def active(self, now: int) -> bool:
        return self.start_ns <= now < self.end_ns

    @property
    def label(self) -> str:
        """Stable episode label for windowed reports."""
        node = "*" if self.node is None else f"node{self.node}"
        return f"nic_stall:{node}:{self.side}"


@dataclass(frozen=True)
class CpuSlow:
    """Host CPU slowdown: every charged cost is scaled by ``factor`` and
    jittered by a uniform draw in ``[0, jitter_ns]``.

    ``node`` selects one host (``None`` = all).  Overlapping episodes
    compose (factors multiply, jitters add).
    """

    node: Optional[int] = None
    start_ns: int = 0
    end_ns: int = FOREVER
    factor: float = 1.0
    jitter_ns: int = 0

    def __post_init__(self) -> None:
        _check_window(self.start_ns, self.end_ns)
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1.0, got {self.factor}")
        if self.jitter_ns < 0:
            raise ValueError(f"jitter_ns must be non-negative, got {self.jitter_ns}")
        if self.factor == 1.0 and self.jitter_ns == 0:
            raise ValueError("a CpuSlow needs factor > 1 or jitter_ns > 0")

    def matches(self, node_id: int) -> bool:
        return self.node is None or self.node == node_id

    def active(self, now: int) -> bool:
        return self.start_ns <= now < self.end_ns

    @property
    def label(self) -> str:
        """Stable episode label for windowed reports."""
        node = "*" if self.node is None else f"node{self.node}"
        return f"cpu_slow:{node}"


Episode = Union[LinkFault, NicStall, CpuSlow]


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus a schedule of episodes; pure data, reusable across runs."""

    seed: int = 0
    episodes: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        episodes = tuple(self.episodes)
        for episode in episodes:
            if not isinstance(episode, (LinkFault, NicStall, CpuSlow)):
                raise TypeError(f"not a fault episode: {episode!r}")
        object.__setattr__(self, "episodes", episodes)

    @property
    def link_faults(self) -> tuple:
        return tuple(e for e in self.episodes if isinstance(e, LinkFault))

    @property
    def nic_stalls(self) -> tuple:
        return tuple(e for e in self.episodes if isinstance(e, NicStall))

    @property
    def cpu_slows(self) -> tuple:
        return tuple(e for e in self.episodes if isinstance(e, CpuSlow))

    def windows(self) -> tuple[tuple[str, int, int], ...]:
        """Every episode as ``(label, start_ns, end_ns)`` — the windows a
        during-fault availability report scores, in plan order."""
        return tuple((e.label, e.start_ns, e.end_ns) for e in self.episodes)

    def __len__(self) -> int:
        return len(self.episodes)
