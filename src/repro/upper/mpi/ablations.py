"""Ablated MPI-over-FM-2.x bindings: each disables one §4.1 feature.

The paper argues for three API features by showing what their absence cost
MPI on FM 1.x.  Each binding here is :class:`MpiFm2Binding` with *one*
feature attribute flipped (see :class:`~repro.upper.mpi.bindings.MpiBinding`
for what the engine then does), so the benchmark harness can attribute the
efficiency loss feature by feature (DESIGN.md's ablation index).  Their
copies are metered as ``ablation.*``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.upper.mpi.bindings import MPI2_DEFAULT_COSTS, MpiFm2Binding


class NoGatherBinding(MpiFm2Binding):
    """FM 2.x receive path, but sends assemble envelope + payload into one
    contiguous buffer first (one full memcpy; multi-piece payloads are
    packed before that), as an FM-1.x-style contiguous interface forces."""

    gather = False
    label = "ablation"


class NoInterleavingBinding(MpiFm2Binding):
    """The handler cannot steer mid-message: every payload is received into
    a staging pool buffer and copied to the user buffer afterwards,
    pre-posted receive or not."""

    steer = False
    label = "ablation"


class NoPacingBinding(MpiFm2Binding):
    """Full FM 2.x data path, but bursts overflow a small pool and spill
    (the §3.2 overrun copy); run it with :data:`NO_PACING_COSTS`."""

    paced = False
    label = "ablation"


#: Costs for the no-pacing ablation: the progress engine extracts without a
#: byte budget (FM 1.x semantics) into a tiny unexpected pool.
NO_PACING_COSTS = replace(MPI2_DEFAULT_COSTS, progress_budget=None, pool_slots=2)

ABLATIONS = {
    "full FM 2.x": (MpiFm2Binding, MPI2_DEFAULT_COSTS),
    "no gather": (NoGatherBinding, MPI2_DEFAULT_COSTS),
    "no interleaving": (NoInterleavingBinding, MPI2_DEFAULT_COSTS),
    "no pacing": (NoPacingBinding, NO_PACING_COSTS),
}
