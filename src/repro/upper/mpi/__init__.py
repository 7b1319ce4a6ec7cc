"""MPI-FM: an MPI subset over Fast Messages.

Point-to-point (blocking and nonblocking, tags, wildcards, eager and
rendezvous protocols) plus the standard collectives.  The protocol and its
copy policy are written once (:class:`~repro.upper.mpi.engine.MpiEngine`);
a *binding* (:mod:`repro.upper.mpi.bindings`) is the FM calls of one FM
generation plus which of the paper's three §4.1 features it offers:

* :class:`~repro.upper.mpi.bindings.MpiFm1Binding` — MPI over FM 1.x, none
  of them, reproducing the interface pathologies of §3.2: a send-side
  assembly copy (header attachment into a contiguous buffer), a receive
  path that cannot steer data into pre-posted buffers (pool copy +
  delivery copy), and no receiver pacing, so bursts overrun the buffer
  pool and force spill copies.
* :class:`~repro.upper.mpi.bindings.MpiFm2Binding` — MPI over FM 2.x, all
  three: gather (header piece + payload piece, no assembly copy), handler
  interleaving (header is received and matched *before* the payload is
  steered straight into the posted user buffer) and ``FM_extract(bytes)``
  receiver pacing in the progress engine.  ``MpiFm2RdmaBinding`` adds an
  RDMA endpoint for the rendezvous payload; three ablations take the three
  features away one at a time.  :data:`repro.upper.mpi.world.BINDINGS`
  names every binding, so ``build_mpi_world`` and ``mpi_binding`` pick one.

Every copy is metered by label, so tests can assert the copy counts the
paper talks about rather than inferring them from bandwidth.
"""

from repro.upper.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.upper.mpi.comm import Communicator
from repro.upper.mpi.engine import MpiEngine
from repro.upper.mpi.bindings import (MPI1_DEFAULT_COSTS, MPI2_DEFAULT_COSTS,
                                      MpiFm1Binding, MpiFm2Binding,
                                      MpiFm2RdmaBinding)
from repro.upper.mpi.status import MpiError, Request, Status
from repro.upper.mpi.world import build_mpi_world

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "MPI1_DEFAULT_COSTS",
    "MPI2_DEFAULT_COSTS",
    "MpiEngine",
    "MpiError",
    "MpiFm1Binding",
    "MpiFm2Binding",
    "MpiFm2RdmaBinding",
    "Request",
    "Status",
    "build_mpi_world",
]
