"""Higher-level communication APIs layered on Fast Messages.

The paper's whole argument is about what happens at the boundary between FM
and the layers above it.  This package implements those layers:

* :mod:`repro.upper.mpi` — an MPI subset: one engine, and a binding per FM
  generation whose three attributes say which interface copies it forces
  (FM 1.x: assembly/staging copies, §3.2; FM 2.x: gather-scatter +
  interleaving + receiver pacing, §4).
* :mod:`repro.upper.sockets` — Sockets-FM: BSD-style byte streams.
* :mod:`repro.upper.shmem` — Shmem Put/Get (global address space).
* :mod:`repro.upper.ga` — minimal Global Arrays over shmem.
"""
