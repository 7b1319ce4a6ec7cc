"""Partitioned parallel simulation: conservative-lookahead PDES.

The cluster is split into partitions (each a contiguous block of switch
groups plus their hosts), one OS worker process per partition, each with
its own :class:`~repro.simkernel.env.Environment`.  Workers advance in
bounded time windows whose width is the minimum latency of any
cross-partition link (the classic conservative lookahead bound) and
exchange boundary packets at window barriers over pipes.

* :mod:`repro.parallel.partition` — the partition plan (ownership, cut
  edges, lookahead).  The build that honours it is the ordinary one:
  ``Cluster`` / ``Fabric`` given the plan and a partition index.
* :mod:`repro.parallel.sync` — the window-barrier wire protocol between
  the coordinator (parent) and the partition workers.
"""

from repro.parallel.partition import PartitionPlan
from repro.parallel.sync import Coordinator, WorkerSync

__all__ = [
    "Coordinator",
    "PartitionPlan",
    "WorkerSync",
]
