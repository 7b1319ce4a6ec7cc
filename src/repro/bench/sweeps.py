"""Message-size sweeps: the curves behind Figures 3-6.

Each sweep runs a microbenchmark (``kind="micro"``) on a fresh cluster per
point, so no state leaks between points: a stream per message size (raw FM,
MPI or one-sided puts).  Sweep results carry enough metadata to render the
paper's figures as text tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.bench.micro import MicroScenario
from repro.bench.nhalf import n_half
from repro.workloads.runner import execute_scenario

#: The paper's x-axes.
FIG3_SIZES = (16, 32, 64, 128, 256, 512)
FIG456_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)


@dataclass
class SweepResult:
    """A bandwidth-vs-size curve."""

    label: str
    sizes: list[int]
    bandwidths_mbs: list[float]

    @property
    def peak_mbs(self) -> float:
        return max(self.bandwidths_mbs)

    @property
    def n_half_bytes(self) -> float:
        return n_half(self.sizes, self.bandwidths_mbs)

    def at(self, size: int) -> float:
        return self.bandwidths_mbs[self.sizes.index(size)]

    def efficiency_vs(self, baseline: "SweepResult") -> list[float]:
        """Percent of the baseline's bandwidth at each size (Fig 4b / 6b)."""
        if self.sizes != baseline.sizes:
            raise ValueError("sweeps cover different sizes")
        return [
            100.0 * mine / theirs if theirs > 0 else 0.0
            for mine, theirs in zip(self.bandwidths_mbs, baseline.bandwidths_mbs)
        ]


def measure(scenario: MicroScenario, **changes):
    """One fresh run of ``scenario`` with ``changes``: its driver's result."""
    return execute_scenario(replace(scenario, **changes)).stats.result


def bandwidth_sweep(scenario: MicroScenario, sizes: Sequence[int],
                    label: str) -> SweepResult:
    """Streaming-bandwidth curve of a stream microbenchmark (``fm-stream``
    or ``mpi-stream``) for each message size."""
    return sweep_with(lambda size: measure(scenario, msg_bytes=size)
                      .bandwidth_mbs, sizes, label)


def sweep_with(measure: Callable[[int], float], sizes: Sequence[int],
               label: str) -> SweepResult:
    """Build a sweep from an arbitrary size -> MB/s measurement function."""
    return SweepResult(label=label, sizes=list(sizes),
                       bandwidths_mbs=[measure(s) for s in sizes])
