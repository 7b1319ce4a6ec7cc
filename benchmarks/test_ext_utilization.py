"""Extension — where the time goes: component utilisation during streams.

Quantifies the paper's saturation arguments: FM 1.x is I/O-bus/PIO-bound
on the Sparc (the CPU is busy *because* PIO occupies it), FM 2.x is
send-side bound on the PPro, and layering MPI on FM 1.x shifts the load
onto host memcpy (the copies), while MPI on FM 2.x leaves the profile
nearly identical to raw FM.
"""

from dataclasses import fields

from conftest import run_once
from repro.bench.figures import FIGURES
from repro.bench.utilization import Utilization


def test_ext_component_utilization(benchmark, show):
    result = run_once(benchmark, FIGURES["ext_utilization"])
    show(result.table)
    results = {label: Utilization(**{
        field.name: result.values[f"{label}/{field.name}"]
        for field in fields(Utilization)})
        for label in ("FM 1.x @512B", "FM 2.x @2KB", "MPI-FM 1.x @512B",
                      "MPI-FM 2.x @2KB")}

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
