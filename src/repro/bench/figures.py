"""The paper's evaluation, stated once.

``FIGURES[name]()`` runs one figure's measurement — once per process: the
simulator is deterministic, so a second run could only repeat the first —
and returns the :class:`FigureResult` everything downstream reads.  ``python
-m repro.bench.regen`` prints ``table`` and writes ``curves`` / ``values`` as
CSV and JSON; ``benchmarks/test_fig*.py`` assert their bands on ``curves``
and ``values`` against :data:`PAPER`; ``tests/golden/paper.figures.json``
pins all of it exactly.  A figure that needs a number another figure
measures reads that figure's result (Figure 6's baseline *is* Figure 5's
curve; the scorecard measures nothing), so regenerating everything
simulates each point once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, NamedTuple, Sequence

from repro.bench.breakdown import breakdown_sweep
from repro.bench.journey import packet_journey
from repro.bench.microbench import fm_pingpong_latency_us
from repro.bench.mpibench import mpi_pingpong_latency_us
from repro.bench.report import (HeadlineRow, bar_table, curve_table,
                                efficiency_table, headline_table)
from repro.bench.sweeps import (FIG3_SIZES, FIG456_SIZES, SweepResult,
                                bandwidth_sweep, mpi_bandwidth_sweep,
                                sweep_with)
from repro.cluster import Cluster
from repro.cmam import COMPONENTS, CmamCostModel, SequenceKind, Side
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.hardware.params import MachineParams
from repro.legacy import (ETHERNET_100MBIT, ETHERNET_1GBIT,
                          FixedOverheadStack, theoretical_bandwidth_mbs)


class Reference(NamedTuple):
    """A headline number of the paper: its scorecard ``title``, the ``value``
    bands are asserted around, the ``text`` every "paper" column prints — it
    starts with ``<``, ``>=`` or ``~`` where the paper gives a bound, not a
    point — and the format a ``measured`` value is printed beside it in."""

    title: str
    value: float
    text: str
    measured: str


#: Keyed ``<layer>_<metric>_<unit>``, like the ``values`` that measure them
#: (an efficiency is a fraction of raw FM's bandwidth); in scorecard order.
PAPER: dict[str, Reference] = {
    "fm1_latency_us": Reference("FM 1.x latency", 14.0, "14 us", "{:.1f} us"),
    "fm1_peak_mbs": Reference("FM 1.x peak BW", 17.6, "17.6 MB/s", "{:.1f}"),
    "fm1_n_half_bytes": Reference("FM 1.x N-half", 54.0, "54 B", "{:.0f} B"),
    "fm2_latency_us": Reference("FM 2.x latency", 11.0, "11 us", "{:.1f} us"),
    "fm2_peak_mbs": Reference("FM 2.x peak BW", 77.0, "77 MB/s", "{:.1f}"),
    "fm2_n_half_bytes": Reference("FM 2.x N-half", 256.0, "< 256 B",
                                  "{:.0f} B"),
    "mpi2_latency_us": Reference("MPI-FM 2.x latency", 17.0, "17 us",
                                 "{:.1f} us"),
    "mpi2_peak_mbs": Reference("MPI-FM 2.x peak BW", 70.0, "70 MB/s",
                               "{:.1f}"),
    "mpi2_eff_16": Reference("MPI eff @ 16 B", 0.70, ">= 70%", "{:.0%}"),
    "mpi2_eff_2048": Reference("MPI eff @ 2 KB", 0.90, "~90%", "{:.0%}"),
}


@dataclass(frozen=True)
class FigureResult:
    """One regenerated figure, shared by every caller in the process."""

    #: The text ``regen`` and the benchmarks print.
    table: str
    #: The series CSV/JSON carry (none for Fig 2, journey, scorecard).
    curves: list[SweepResult] = field(default_factory=list)
    #: Every scalar a table row or a band reads.
    values: dict[str, float] = field(default_factory=dict)


def _row(title: str, key: str, measured: float,
         deviation: bool = False) -> HeadlineRow:
    """``PAPER[key]`` against ``measured``; the scorecard adds the signed
    ``deviation``, from point values only."""
    paper = PAPER[key]
    note = None
    if deviation and paper.text[0].isdigit():
        note = f"{(measured - paper.value) / paper.value:+.0%}"
    return HeadlineRow(title, paper.text, paper.measured.format(measured),
                       note)


@cache
def fig1() -> FigureResult:
    """Figure 1: Ethernet bandwidth under 125 us of protocol processing per
    packet, analytic, with the simulated stack as a cross-check at 1 KB."""
    curves = [sweep_with(lambda size, wire=wire:
                         theoretical_bandwidth_mbs(size, wire),
                         (8, 16, 32, 64, 128, 256, 512, 1024), label)
              for label, wire in (("100 Mbit/s", ETHERNET_100MBIT),
                                  ("1 Gbit/s", ETHERNET_1GBIT))]
    simulated = FixedOverheadStack(ETHERNET_1GBIT).measure_bandwidth_mbs(1024)
    return FigureResult(
        curve_table("Figure 1 — legacy stack bandwidth, 125 us/packet "
                    "overhead", curves),
        curves, {"simulated_1gbit_1024_mbs": simulated})


@cache
def fig2() -> FigureResult:
    """Figure 2: CM-5 Active Messages overhead by component, in cycles;
    ``values`` is keyed ``<sequence>/<side>/<component or TOTAL>``."""
    model = CmamCostModel(message_words=16, packet_words=4)
    groups = [("finite/src", SequenceKind.FINITE, Side.SRC),
              ("finite/dest", SequenceKind.FINITE, Side.DEST),
              ("finite/total", SequenceKind.FINITE, Side.TOTAL),
              ("indef/total", SequenceKind.INDEFINITE, Side.TOTAL),
              ("indef/dest", SequenceKind.INDEFINITE, Side.DEST),
              ("indef/src", SequenceKind.INDEFINITE, Side.SRC)]
    cycles = {(component, label): float(model.cycles(component, side, seq))
              for label, seq, side in groups for component in COMPONENTS}
    values = {f"{label}/{component}": n
              for (component, label), n in cycles.items()}
    for label, seq, side in groups:
        values[f"{label}/TOTAL"] = float(model.total(side, seq))
    return FigureResult(
        bar_table("Figure 2 — CMAM overhead breakdown (cycles)",
                  [label for label, _seq, _side in groups], list(COMPONENTS),
                  cycles),
        values=values)


@cache
def fig3a() -> FigureResult:
    """Figure 3(a): FM 1.x bandwidth as link management, the I/O bus
    crossing and flow control are added in turn."""
    curves = breakdown_sweep(SPARC_FM1, FIG3_SIZES, n_messages=40)
    return FigureResult(
        curve_table("Figure 3(a) — FM 1.x overhead breakdown", curves), curves)


def _raw_fm(layer: str, machine: MachineParams, version: int,
            sizes: Sequence[int], label: str, title: str) -> FigureResult:
    """A raw-FM figure: the bandwidth curve over its three headline metrics."""
    sweep = bandwidth_sweep(machine, version, sizes, n_messages=40,
                            label=label)
    latency = fm_pingpong_latency_us(Cluster(2, machine, version), 16, 15)
    rows = {"one-way latency (16 B)": (f"{layer}_latency_us", latency),
            "peak bandwidth": (f"{layer}_peak_mbs", sweep.peak_mbs),
            "N-half": (f"{layer}_n_half_bytes", sweep.n_half_bytes)}
    return FigureResult(
        curve_table(title, [sweep]) + "\n\n"
        + headline_table(f"FM {version}.x headline metrics",
                         [_row(row, key, value)
                          for row, (key, value) in rows.items()]),
        [sweep], dict(rows.values()))


@cache
def fig3b() -> FigureResult:
    """Figure 3(b): FM 1.x overall on the Sparc/SBus testbed."""
    return _raw_fm("fm1", SPARC_FM1, 1, FIG3_SIZES, "FM 1.x",
                   "Figure 3(b) — FM 1.x overall performance")


@cache
def fig5() -> FigureResult:
    """Figure 5: FM 2.1 on the 200 MHz Pentium Pro testbed."""
    return _raw_fm("fm2", PPRO_FM2, 2, FIG456_SIZES, "FM 2.1",
                   "Figure 5 — FM 2.1 on a 200 MHz PPro")


def _mpi_vs_fm(figure: int, fm: SweepResult, machine: MachineParams,
               version: int) -> FigureResult:
    """MPI-FM against the raw-FM curve ``fm``: (a) absolute, (b) efficiency."""
    mpi = mpi_bandwidth_sweep(machine, version, FIG456_SIZES, n_messages=30,
                              label=f"MPI-{fm.label}")
    return FigureResult(
        curve_table(f"Figure {figure}(a) — {mpi.label} vs {fm.label} "
                    "(absolute)", [fm, mpi]) + "\n\n"
        + efficiency_table(f"Figure {figure}(b) — {mpi.label} efficiency",
                           mpi, fm),
        [fm, mpi],
        {f"mpi{version}_peak_mbs": mpi.peak_mbs,
         f"mpi{version}_eff_16": mpi.at(16) / fm.at(16),
         f"mpi{version}_eff_2048": mpi.at(2048) / fm.at(2048)})


@cache
def fig4() -> FigureResult:
    """Figure 4: the initial MPI-FM over FM 1.x."""
    fm = bandwidth_sweep(SPARC_FM1, 1, FIG456_SIZES, n_messages=40,
                         label="FM 1.x")
    return _mpi_vs_fm(4, fm, SPARC_FM1, 1)


@cache
def fig6() -> FigureResult:
    """Figure 6: MPI-FM 2.0 against FM 2.0 — Figure 5's curve under the
    name the paper gives it here — and the MPI latency."""
    pair = _mpi_vs_fm(6, replace(fig5().curves[0], label="FM 2.0"),
                      PPRO_FM2, 2)
    latency = mpi_pingpong_latency_us(Cluster(2, PPRO_FM2, 2), 16, 12)
    return FigureResult(
        pair.table + f"\n\nMPI-FM 2.0 one-way latency (16 B): {latency:.1f} "
        f"us (paper: {PAPER['mpi2_latency_us'].text})",
        pair.curves, {**pair.values, "mpi2_latency_us": latency})


@cache
def journey() -> FigureResult:
    """Extension: where one 16 B message's latency goes, stage by stage,
    on both FM generations; ``values`` is keyed ``<layer>/<stage>``."""
    parts, values = [], {}
    for layer, machine, version in (("fm1", SPARC_FM1, 1),
                                    ("fm2", PPRO_FM2, 2)):
        trip = packet_journey(machine, version)
        parts.append(f"FM {version}.x — 16 B one-way journey\n{trip.render()}")
        values.update({f"{layer}/{stage}": float(ns)
                       for stage, ns in trip.stages()})
        values[f"{layer}/TOTAL"] = float(trip.total_ns)
    return FigureResult("\n\n".join(parts), values=values)


@cache
def scorecard() -> FigureResult:
    """Every headline number of the paper against the figure that measures
    it; FM 1.x's peak is over Figure 4's eight sizes, not Figure 3(b)'s six."""
    measured = {**fig3b().values, **fig5().values, **fig6().values,
                "fm1_peak_mbs": fig4().curves[0].peak_mbs}
    return FigureResult(
        headline_table("Reproduction scorecard — paper vs measured",
                       [_row(paper.title, key, measured[key], deviation=True)
                        for key, paper in PAPER.items()]),
        values={key: measured[key] for key in PAPER})


FIGURES: dict[str, Callable[[], FigureResult]] = {
    figure.__name__: figure
    for figure in (fig1, fig2, fig3a, fig3b, fig4, fig5, fig6, journey,
                   scorecard)}
