"""MPI-FM tests, and the SPMD runner they share."""

from tests.golden.regen import mpi_world


def run_spmd(n_ranks, body, binding="fm2"):
    """Run ``body(rank, comm, node)`` on every rank of an ``n_ranks`` MPI
    world over ``binding``; returns ``{rank: what body returned}``."""
    cluster, comms = mpi_world(binding, n=n_ranks)
    return dict(enumerate(cluster.run(
        [lambda node, rank=rank: body(rank, comms[rank], node)
         for rank in range(n_ranks)])))
