"""Message-size sweeps: the curves behind Figures 3-6.

Each sweep builds a *fresh* cluster per message size (so no state leaks
between points) and measures streaming bandwidth, on raw FM or through MPI.
Sweep results carry enough metadata to render the paper's figures as text
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.hardware.params import MachineParams

from repro.bench.microbench import fm_stream
from repro.bench.mpibench import mpi_stream
from repro.bench.nhalf import n_half
from repro.cluster.cluster import Cluster

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


def bandwidth_sweep(machine: MachineParams, fm_version: int,
                    sizes: Sequence[int], n_messages: int = 60,
                    label: str = "", fm_params=None,
                    extract_budget: Optional[int] = None) -> SweepResult:
    """Streaming-bandwidth curve on raw FM for each message size."""
    def measure(size: int) -> float:
        cluster = Cluster(2, machine=machine, fm_version=fm_version,
                          fm_params=fm_params)
        return fm_stream(cluster, size, n_messages=n_messages,
                         extract_budget=extract_budget).bandwidth_mbs
    return sweep_with(measure, sizes, label or f"FM{fm_version}")


def mpi_bandwidth_sweep(machine: MachineParams, fm_version: int,
                        sizes: Sequence[int], n_messages: int = 60,
                        label: str = "") -> SweepResult:
    """Streaming-bandwidth curve through MPI-FM for each message size."""
    def measure(size: int) -> float:
        cluster = Cluster(2, machine=machine, fm_version=fm_version)
        return mpi_stream(cluster, size, n_messages).bandwidth_mbs
    return sweep_with(measure, sizes, label or f"MPI-FM{fm_version}")


def sweep_with(measure: Callable[[int], float], sizes: Sequence[int],
               label: str) -> SweepResult:
    """Build a sweep from an arbitrary size -> MB/s measurement function."""
    return SweepResult(label=label, sizes=list(sizes),
                       bandwidths_mbs=[measure(s) for s in sizes])
