"""The paper's microbenchmarks as a workload kind (``kind="micro"``): a
figure point is one ``execute_scenario`` run of a preset, so it measures
exactly what its driver measures on a fresh cluster, and it takes a fault
plan like every other preset (an observer too: ``tests/golden`` holds each
micro preset's observed report to its golden)."""

import pytest

from repro.bench.journey import packet_journey
from repro.bench.microbench import fm_pingpong, fm_stream
from repro.bench.mpibench import mpi_pingpong_latency_us, mpi_stream
from repro.bench.sweeps import measure
from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.faults.plan import FaultPlan, NicStall
from repro.workloads.presets import PRESETS
from repro.workloads.runner import run_scenario


def fresh():
    return Cluster(2, PPRO_FM2, 2)


#: pattern -> its driver called directly: 12 messages or 5 round trips of
#: 256 B on a fresh FM 2.x pair.
DIRECT = {
    "fm-stream": lambda: fm_stream(fresh(), 256, 12),
    "mpi-stream": lambda: mpi_stream(fresh(), 256, 12),
    "fm-pingpong": lambda: fm_pingpong(fresh(), 256, 5),
    "mpi-pingpong": lambda: mpi_pingpong_latency_us(fresh(), 256, 5),
    "journey": lambda: packet_journey(fresh(), 256),
}


@pytest.mark.parametrize("pattern", DIRECT)
def test_each_pattern_measures_what_its_driver_does(pattern):
    result = measure(PRESETS["stream-fm2"], pattern=pattern, msg_bytes=256,
                     n_requests=12, iterations=5)
    expected = DIRECT[pattern]()
    if pattern == "mpi-pingpong":
        assert result.one_way_latency_us == expected
        assert result.round_trips == 5
    else:
        assert result == expected


def test_a_figure_point_under_a_nic_stall():
    """A Figure 5 point with node 1's NIC 20 us slower per packet for the
    first 600 us: the report carries a ``faults`` section and the stream
    loses bandwidth against the clean run."""
    clean = run_scenario(PRESETS["stream-fm2"])
    plan = FaultPlan(episodes=(NicStall(node=1, start_ns=0, end_ns=600_000,
                                         extra_ns=20_000),))
    stalled = run_scenario(PRESETS["stream-fm2"], plan=plan)
    assert "faults" not in clean
    assert stalled["faults"]["events"] > 0
    assert (stalled["results"]["bandwidth_mbs"]
            < clean["results"]["bandwidth_mbs"])
