"""Building an MPI world over a simulated cluster."""

from __future__ import annotations

from typing import Optional

from repro.cluster.cluster import Cluster
from repro.upper.mpi.bindings import (MPI1_DEFAULT_COSTS, MPI2_DEFAULT_COSTS,
                                      MpiFm1Binding, MpiFm2Binding)
from repro.upper.mpi.comm import Communicator
from repro.upper.mpi.engine import MpiCosts, MpiEngine

#: ``fm_version`` -> (binding, calibrated costs) a world gets by default.
DEFAULTS = {1: (MpiFm1Binding, MPI1_DEFAULT_COSTS),
            2: (MpiFm2Binding, MPI2_DEFAULT_COSTS)}


def build_mpi_world(cluster: Cluster, costs: Optional[MpiCosts] = None,
                    binding_cls=None) -> list[Communicator]:
    """One ``comm_world`` communicator per node, bound to the cluster's FM.

    The binding (FM 1.x copy-based vs FM 2.x gather-scatter) follows the
    cluster's ``fm_version``; ``costs`` overrides the calibrated defaults
    and ``binding_cls`` substitutes another binding of the same FM
    generation — a feature ablation, or
    :class:`~repro.upper.mpi.bindings.MpiFm2RdmaBinding` to route
    rendezvous payloads over one-sided RDMA read.  Rank ``i`` is node ``i``.
    """
    default_binding, default_costs = DEFAULTS[cluster.fm_version]
    return [Communicator(MpiEngine(node, costs or default_costs,
                                   cluster.n_nodes,
                                   binding_cls or default_binding), context=0)
            for node in cluster.nodes]
