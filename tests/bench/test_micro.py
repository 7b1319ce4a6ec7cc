"""Every microbenchmark as a workload kind (``kind="micro"``): a figure or
extension point is one ``execute_scenario`` run of a preset, so it measures
exactly what its driver measures on a fresh cluster, and it takes a fault
plan like every other preset (an observer too: ``tests/golden`` holds each
micro preset's observed report to its golden)."""

from dataclasses import replace

import pytest

from repro.bench.journey import packet_journey
from repro.bench.microbench import fm_pingpong, fm_stream
from repro.bench.mpibench import mpi_pingpong_latency_us, mpi_stream
from repro.bench.sweeps import measure
from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.faults.plan import FaultPlan, NicStall
from repro.workloads.presets import PRESETS
from repro.workloads.runner import execute_scenario, run_scenario


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


def stall(node, end_ns):
    """Node ``node``'s NIC 20 us slower per packet until ``end_ns``."""
    return FaultPlan(episodes=(NicStall(node=node, start_ns=0, end_ns=end_ns,
                                        extra_ns=20_000),))


def test_rdma_puts_under_a_nic_stall():
    """The Figure 5 stream as one-sided puts: the stalled target NIC lands
    the same 40 puts in 380 us more."""
    puts = replace(PRESETS["stream-fm2"], pattern="rdma-stream")
    clean = run_scenario(puts)
    stalled = run_scenario(puts, plan=stall(1, 600_000))
    assert round(clean["results"]["bandwidth_mbs"], 2) == 89.72
    assert round(stalled["results"]["bandwidth_mbs"], 2) == 48.97
    assert stalled["faults"]["events"] == 19


def test_the_put_pingpong_under_a_nic_stall_and_an_observer():
    """Node 1's NIC stalls the first 17 packets it handles: the 40 round
    trips read 3.56 us slower one way, observed or not."""
    pingpong = PRESETS["rdma-pingpong"]
    stalled = run_scenario(pingpong, plan=stall(1, 600_000))
    assert stalled["results"] == {"one_way_latency_us": 72.030575,
                                  "round_trips": 40}
    assert stalled["faults"]["events"] == 17
    observed = execute_scenario(pingpong, plan=stall(1, 600_000),
                                observe=True)
    assert len(observed.observer) > 0
    assert observed.report == stalled


def test_a_nic_barrier_under_a_nic_stall_and_an_observer():
    barrier = replace(PRESETS["pingpong-fm2"], pattern="nic-barrier",
                      n_nodes=8)
    assert run_scenario(barrier)["results"]["latency_ns"] == 16_524.0
    stalled = run_scenario(barrier, plan=stall(3, 200_000))
    assert round(stalled["results"]["latency_ns"], 1) == 23_221.6
    observed = execute_scenario(barrier, observe=True)
    assert len(observed.observer) > 0
    assert observed.report["results"]["latency_ns"] == 16_524.0


#: case -> (preset, fields, result field, the exact value the driver each
#: pattern replaced returned): collectives over 8 nodes, 10 rounds, a 4 KB
#: broadcast; a 512 B alltoall over 8 nodes; 40 puts of 4 KB; 40 round
#: trips of a 4 KB put each way.
PINNED = {
    "nic-barrier": ("pingpong-fm2", {"n_nodes": 8, "msg_bytes": 4096,
                                     "iterations": 10}, "latency_ns",
                    16_524.0),
    "host-barrier": ("pingpong-fm2", {"n_nodes": 8, "msg_bytes": 4096,
                                      "iterations": 10}, "latency_ns",
                     44_371.2),
    "nic-bcast": ("pingpong-fm2", {"n_nodes": 8, "msg_bytes": 4096,
                                   "iterations": 10}, "latency_ns", 71_476.3),
    "host-bcast": ("pingpong-fm2", {"n_nodes": 8, "msg_bytes": 4096,
                                    "iterations": 10}, "latency_ns",
                   156_159.0),
    "mpi-alltoall/fm1": ("stream-fm1", {"n_nodes": 8, "msg_bytes": 512},
                         "completion_us", 1_125.705),
    "mpi-alltoall/fm2": ("stream-fm2", {"n_nodes": 8, "msg_bytes": 512},
                         "completion_us", 238.434),
    "rdma-stream": ("stream-fm2", {"msg_bytes": 4096}, "bandwidth_mbs",
                    93.62323163578368),
    "rdma-pingpong": ("pingpong-fm2", {"msg_bytes": 4096, "iterations": 40},
                      "one_way_latency_us", 68.469),
}


@pytest.mark.parametrize("case", PINNED)
def test_each_group_pattern_and_the_put_stream_is_pinned(case):
    preset, fields, field, value = PINNED[case]
    result = measure(PRESETS[preset], pattern=case.split("/")[0], **fields)
    assert getattr(result, field) == value
