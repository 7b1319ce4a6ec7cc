"""Building an MPI world over a simulated cluster."""

from __future__ import annotations

from typing import Optional

from repro.cluster.cluster import Cluster
from repro.upper.mpi.bindings import (
    MPI1_DEFAULT_COSTS, MPI2_DEFAULT_COSTS, NO_PACING_COSTS, MpiFm1Binding,
    MpiFm2Binding, MpiFm2RdmaBinding, NoGatherBinding, NoInterleavingBinding,
    NoPacingBinding)
from repro.upper.mpi.comm import Communicator
from repro.upper.mpi.engine import MpiEngine

#: Every MPI binding by name -> ``(fm_version, binding class, costs)``: each
#: generation's calibrated default (``fm1``, ``fm2``), FM 2.x with the
#: rendezvous payload over RDMA read, and the three §4.1 ablations.
BINDINGS = {
    "fm1": (1, MpiFm1Binding, MPI1_DEFAULT_COSTS),
    "fm2": (2, MpiFm2Binding, MPI2_DEFAULT_COSTS),
    "rdma": (2, MpiFm2RdmaBinding, MPI2_DEFAULT_COSTS),
    "no-gather": (2, NoGatherBinding, MPI2_DEFAULT_COSTS),
    "no-interleaving": (2, NoInterleavingBinding, MPI2_DEFAULT_COSTS),
    "no-pacing": (2, NoPacingBinding, NO_PACING_COSTS),
}


def binding_named(name: Optional[str], fm_version: int) -> tuple:
    """``(binding class, costs)`` of binding ``name`` (none: ``fm<N>``,
    FM N.x's default) on FM ``fm_version``.  An unknown name, or one of
    the other generation, is a ``ValueError``."""
    name = name or f"fm{fm_version}"
    if name not in BINDINGS:
        raise ValueError(f"mpi_binding must be one of {tuple(BINDINGS)}, "
                         f"got {name!r}")
    version, binding_cls, costs = BINDINGS[name]
    if version != fm_version:
        raise ValueError(f"mpi_binding {name!r} binds FM {version}.x: "
                         f"fm_version must be {version}, got {fm_version}")
    return binding_cls, costs


def build_mpi_world(cluster: Cluster,
                    binding: Optional[str] = None) -> list[Communicator]:
    """One ``comm_world`` communicator per node over the cluster's FM,
    bound by :data:`BINDINGS` entry ``binding`` (by default the cluster's
    FM generation's).  Rank ``i`` is node ``i``."""
    binding_cls, costs = binding_named(binding, cluster.fm_version)
    return [Communicator(MpiEngine(node, costs, cluster.n_nodes, binding_cls),
                         context=0)
            for node in cluster.nodes]
