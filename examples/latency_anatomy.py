#!/usr/bin/env python3
"""The anatomy of a microsecond: where FM's latency and bandwidth go.

A guided tour of the analysis tools: the per-stage journey of one 16-byte
message on both FM generations (waypoint-instrumented packets), the
component-utilisation profile of a bandwidth stream, and the first-order
analytic model's predictions next to the simulated measurements — the
workflow a performance engineer would use on this library.

Each journey also runs with the observability layer attached and is
exported as a Perfetto/Chrome trace-event file under ``out/`` — open it at
https://ui.perfetto.dev to see every layer crossing on its own track.

Run:  python examples/latency_anatomy.py
"""

from pathlib import Path

from repro.bench.calibration import (
    predicted_bandwidth_mbs,
    predicted_latency_us,
)
from repro.bench.microbench import fm_pingpong, fm_stream
from repro.bench.utilization import fm_stream_utilization
from repro.cluster import Cluster
from repro.cluster.cluster import default_fm_params
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.obs.export import export_trace
from repro.workloads.presets import PRESETS
from repro.workloads.runner import execute_scenario


def main() -> None:
    for label, machine, version, paper_lat, paper_bw in (
        ("FM 1.x on Sparc/SBus", SPARC_FM1, 1, 14.0, 17.6),
        ("FM 2.x on PPro/PCI", PPRO_FM2, 2, 11.0, 77.0),
    ):
        print(f"=== {label} ===\n")

        # The journey-fm1/2 presets: one 16 B message, observed.
        outcome = execute_scenario(PRESETS[f"journey-fm{version}"],
                                   observe=True)
        journey, observer = outcome.stats.result, outcome.observer
        print("one 16-byte message, stage by stage:")
        print(journey.render())
        print(f"slowest stage: {journey.longest_stage()}")
        trace_path = export_trace(
            observer, Path("out") / f"latency_anatomy_fm{version}.json")
        print(f"perfetto trace : {trace_path} "
              f"({len(observer.spans)} spans — open at ui.perfetto.dev)\n")

        latency = fm_pingpong(Cluster(2, machine, version), 16,
                              iterations=10).one_way_latency_us
        bandwidth = fm_stream(Cluster(2, machine, version), 2048,
                              n_messages=40).bandwidth_mbs
        params = default_fm_params(version)
        print(f"ping-pong latency : {latency:6.2f} us   "
              f"(paper {paper_lat}, model "
              f"{predicted_latency_us(machine, params):.2f})")
        print(f"bandwidth @ 2 KB  : {bandwidth:6.2f} MB/s "
              f"(paper {paper_bw}, model "
              f"{predicted_bandwidth_mbs(machine, params, 2048):.2f})\n")

        util = fm_stream_utilization(machine, version, 2048, n_messages=40)
        print("streaming at 2 KB, who is busy:")
        for metric, value in util.rows():
            print(f"  {metric:<26} {value}")
        print()


if __name__ == "__main__":
    main()
