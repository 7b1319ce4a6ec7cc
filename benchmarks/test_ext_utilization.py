"""Extension — where the time goes: component utilisation during streams.

Quantifies the paper's saturation arguments: FM 1.x is I/O-bus/PIO-bound
on the Sparc (the CPU is busy *because* PIO occupies it), FM 2.x is
send-side bound on the PPro, and layering MPI on FM 1.x shifts the load
onto host memcpy (the copies), while MPI on FM 2.x leaves the profile
nearly identical to raw FM.
"""

from dataclasses import replace

import pytest

from conftest import run_once
from repro.bench.report import HeadlineRow, headline_table
from repro.bench.utilization import stream_utilization
from repro.workloads.presets import PRESETS


def test_ext_component_utilization(benchmark, show):
    def regenerate():
        return {
            label: stream_utilization(replace(PRESETS[preset], **fields))
            for label, preset, fields in (
                ("FM 1.x @512B", "stream-fm1",
                 {"msg_bytes": 512, "n_requests": 60}),
                ("FM 2.x @2KB", "stream-fm2",
                 {"msg_bytes": 2048, "n_requests": 60}),
                ("MPI-FM 1.x @512B", "mpi-stream-fm2",
                 {"machine": "sparc", "fm_version": 1, "msg_bytes": 512,
                  "n_requests": 40}),
                ("MPI-FM 2.x @2KB", "mpi-stream-fm2",
                 {"msg_bytes": 2048, "n_requests": 40}),
            )
        }

    results = run_once(benchmark, regenerate)
    rows = []
    for label, util in results.items():
        for metric, value in util.rows():
            rows.append(HeadlineRow(f"{label}: {metric}", "-", value))
    show(headline_table("Extension — component utilisation", rows))

    fm1 = results["FM 1.x @512B"]
    fm2 = results["FM 2.x @2KB"]
    mpi1 = results["MPI-FM 1.x @512B"]
    mpi2 = results["MPI-FM 2.x @2KB"]

    # Raw FM saturates the send side (PIO holds CPU + bus).
    assert fm1.sender_cpu > 0.9
    assert fm1.sender_bus > 0.7
    assert fm2.bottleneck == "sender_cpu"
    # Zero copies on any FM-only send path.
    assert fm1.sender_copy_bytes == 0
    assert fm2.sender_copy_bytes == 0
    # MPI over FM 1.x turns the receiver CPU into a copy engine: ~4 copies
    # per received payload byte vs ~1 for MPI over FM 2.x.
    mpi1_per_byte = mpi1.receiver_copy_bytes / (512 * 40)
    mpi2_per_byte = mpi2.receiver_copy_bytes / (2048 * 40)
    assert mpi1_per_byte > 3.0
    assert mpi2_per_byte < 1.2
    assert mpi1_per_byte > 2.5 * mpi2_per_byte
    # MPI over FM 2.x keeps raw FM's profile: sender-side bound, receiver
    # CPU comfortably below saturation.
    assert mpi2.bottleneck == "sender_cpu"
    assert mpi2.receiver_cpu < 0.95
