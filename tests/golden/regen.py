"""Regenerate (or check) the golden scenario reports in this directory.

    PYTHONPATH=src python tests/golden/regen.py            # rewrite goldens
    PYTHONPATH=src python tests/golden/regen.py --check    # diff only
    PYTHONPATH=src python tests/golden/regen.py --check --out DIR

One ``<name>.json`` per case, each the canonical report
(``dumps_deterministic``) of a scenario run at seed 1: every workload
preset (with its ``PRESET_PLANS`` fault plan) under its own name, and
every ``perfbench/specs/*.json`` scenario as ``spec.<name>.json``.
``obs.digests.json`` pins what an *observed* run exports — span count and
the sha256 of the trace-event export and of the metrics registry — for
the ``OBS_CASES``, so a change to the observer that moves one span,
attribute or label shows up here.  ``mpi.bindings.json`` pins the MPI
receive path itself, below any scenario: every binding and ablation ×
payload sizes on both sides of the eager threshold × four receive modes,
each entry the finish time, event counts, engine stats and per-node copy
bytes of a four-message exchange (see :func:`mpi_binding_entry`).
``paper.figures.json`` pins the paper's evaluation exactly (the bands under
``benchmarks/`` are +-15 %): the text table of every figure ``python -m
repro.bench.regen`` prints, the series behind the six curve figures at
4 dp, and the ``latency_vs_hops`` rows.

The rule these files exist for: *unchanged means matches golden; an
intentional re-baseline is a reviewable diff of this directory.*
``--check`` writes nothing here, prints a unified diff of every case
that drifted and exits non-zero; ``--out DIR`` additionally drops each
fresh report into ``DIR`` (the CI artifact).  ``rpc-aggregate-100k``
takes about a minute, so it only runs under ``--slow`` (CI compares it
in its own budgeted step).
"""

from __future__ import annotations

import argparse
import difflib
import functools
import hashlib
import json
import sys
from pathlib import Path

from repro.bench.figures import FIGURES
from repro.bench.sweeps import latency_vs_hops
from repro.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.obs.export import dumps_deterministic, trace_events
from repro.upper.mpi import ANY_SOURCE, ANY_TAG, MPI2_DEFAULT_COSTS
from repro.upper.mpi.comm import Communicator
from repro.upper.mpi.engine import MpiEngine
from repro.upper.mpi.world import BINDINGS, build_mpi_world
from repro.workloads.presets import PRESET_PLANS, PRESETS
from repro.workloads.runner import (Scenario, ScenarioOutcome,
                                    execute_scenario, run_scenario)

GOLDEN_DIR = Path(__file__).resolve().parent
SPEC_DIR = GOLDEN_DIR.parents[1] / "perfbench" / "specs"
SLOW = frozenset({"rpc-aggregate-100k"})
#: The golden holding the observed-export digests, and the cases it covers
#: (one per workload kind that records spans, ``rdma-pingpong`` the micro
#: kind's, ``rpc-open`` a one-server service's, plus the perfbench spec the
#: observer's cost is measured on).
OBS_DIGESTS = "obs.digests"
OBS_CASES = ("rpc-sharded", "rpc-open", "dataflow-rollup", "mpi-halo",
             "rdma-pingpong", "spec.rpc_uniform")

#: The golden pinning the MPI-over-FM receive path, and its axes: every
#: binding of ``BINDINGS``, payload sizes straddling the 16 KB eager
#: threshold, and how the receiver meets the messages.
MPI_BINDINGS = "mpi.bindings"
MPI_SIZES = (0, 16, 1_000, 4_096, 20_000, 40_000)
MPI_MODES = ("window", "recv", "late", "pieces")
MPI_MESSAGES = 4
#: Bindings whose ``CopyMeter`` labels are pinned by tests/upper/mpi; the
#: ablations' labels are their own business, so only their totals are held.
MPI_LABELLED = ("fm1", "fm2", "rdma")

#: The golden pinning the paper's figures (see :func:`paper_figures_text`).
PAPER_FIGURES = "paper.figures"


def cases() -> dict:
    """``{golden name: (scenario, fault plan or None)}``, presets first."""
    out = {name: (scenario, PRESET_PLANS.get(name))
           for name, scenario in PRESETS.items()}
    for path in sorted(SPEC_DIR.glob("*.json")):
        spec = json.loads(path.read_text())
        out[f"spec.{path.stem}"] = (
            Scenario.from_dict({**spec, "seed": 1}), None)
    return out


def golden_text(name: str) -> str:
    """The checked-in canonical report for ``name``."""
    return (GOLDEN_DIR / f"{name}.json").read_text()


def fresh_text(name: str, observe: bool = False) -> str:
    """Run case ``name`` now and return its canonical report (an observed
    ``OBS_CASES`` report is read off :func:`observed`)."""
    if observe and name in OBS_CASES:
        return dumps_deterministic(observed(name).report)
    scenario, plan = cases()[name]
    return dumps_deterministic(
        run_scenario(scenario, plan=plan, observe=observe))


@functools.cache
def observed(name: str) -> ScenarioOutcome:
    """Case ``name`` of ``OBS_CASES`` run once with an observer attached:
    its report, its export digest and its hop-span laws are read off the
    same run."""
    scenario, plan = cases()[name]
    return execute_scenario(scenario, plan=plan, observe=True)


def obs_digest(name: str) -> dict:
    """Digest what the observer of case ``name`` exports."""
    observer = observed(name).observer
    return {"spans": len(observer.spans),
            "trace_sha256": _sha256(trace_events(observer.spans)),
            "metrics_sha256": _sha256(observer.metrics.as_dict())}


def _sha256(obj) -> str:
    return hashlib.sha256(dumps_deterministic(obj).encode()).hexdigest()


def obs_digests_text() -> str:
    """The canonical ``obs.digests.json`` of a fresh run of ``OBS_CASES``."""
    return dumps_deterministic({name: obs_digest(name) for name in OBS_CASES})


def mpi_world(binding: str, costs=None, n: int = 2):
    """``(cluster, comms)``: ``n`` nodes under ``BINDINGS[binding]`` on its
    FM generation's machine; ``costs`` overrides the binding's own."""
    fm_version, binding_cls, _costs = BINDINGS[binding]
    cluster = Cluster(n, machine=SPARC_FM1 if fm_version == 1 else PPRO_FM2,
                      fm_version=fm_version)
    if costs is None:
        return cluster, build_mpi_world(cluster, binding)
    return cluster, [Communicator(MpiEngine(node, costs, n, binding_cls),
                                  context=0) for node in cluster.nodes]


def mpi_binding_entry(binding: str, mode: str, size: int) -> dict:
    """Rank 0 sends ``MPI_MESSAGES`` payloads of ``size`` bytes to rank 1,
    which receives them by ``mode``: ``window`` pre-posts every ``irecv``
    then waits; ``recv`` blocks one at a time (every other one on
    wildcards); ``late`` shows up 400 us late and drains without posting,
    so everything lands unexpected (and a two-slot pool spills);
    ``pieces`` is ``recv`` with each payload sent as three gather pieces.
    """
    cluster, comms = mpi_world(binding)
    engine = comms[1].engine
    payloads = [bytes((7 * i + j) % 251 for j in range(size))
                for i in range(MPI_MESSAGES)]
    got = []

    def sender(node):
        for tag, payload in enumerate(payloads):
            if mode == "pieces":
                cut = size // 3
                yield from comms[0].send_pieces(
                    [payload[:cut], payload[cut:2 * cut], payload[2 * cut:]],
                    1, tag)
            else:
                yield from comms[0].send(payload, 1, tag)

    def receiver(node):
        if mode == "window":
            requests = []
            for tag in range(MPI_MESSAGES):
                requests.append((yield from comms[1].irecv(0, tag, size)))
            yield from comms[1].waitall(requests)
            got.extend(request.data for request in requests)
            return
        if mode == "late":
            yield node.env.timeout(400_000)
            # A rendezvous sender blocks on its first RTS.
            parked = (MPI_MESSAGES if size <= engine.costs.eager_threshold
                      else 1)
            while engine.stats_unexpected < parked:
                yield from engine.progress()
                yield node.env.timeout(1_000)
        for tag in range(MPI_MESSAGES):
            source, want = (0, tag) if tag % 2 == 0 else (ANY_SOURCE, ANY_TAG)
            data, status = yield from comms[1].recv(source, want, size)
            assert (status.source, status.tag) == (0, tag)
            got.append(data)

    cluster.run([sender, receiver])
    entry = {"sim_end_ns": cluster.env.now,
             "scheduled_events": cluster.env.scheduled_events,
             "elided": cluster.env.elided,
             "delivered": got == payloads}
    for stat in ("unexpected", "spills", "rendezvous", "rdma_rendezvous",
                 "rdma_pulls"):
        entry[f"stats_{stat}"] = [getattr(comm.engine, f"stats_{stat}")
                                  for comm in comms]
    meters = [node.cpu.meter for node in cluster.nodes]
    if binding in MPI_LABELLED:
        entry["copy_bytes_by_label"] = [dict(meter.by_label)
                                        for meter in meters]
    else:
        entry["copy_bytes"] = [meter.bytes for meter in meters]
    return entry


def mpi_binding_entries(binding: str) -> dict:
    """``{"<mode>/<size>": entry}`` for one binding; ``pieces`` only up
    to the eager threshold every cost set here shares (``send_pieces``
    refuses more)."""
    return {f"{mode}/{size}": mpi_binding_entry(binding, mode, size)
            for mode in MPI_MODES for size in MPI_SIZES
            if mode != "pieces"
            or size <= MPI2_DEFAULT_COSTS.eager_threshold}


def mpi_bindings_text() -> str:
    """The canonical ``mpi.bindings.json`` of a fresh run of every case."""
    return dumps_deterministic({binding: mpi_binding_entries(binding)
                                for binding in BINDINGS})


def paper_figures_text() -> str:
    """The canonical ``paper.figures.json``: per figure the exact ``table``
    text and, for the curve figures, ``series`` — each curve's MB/s values
    at 4 dp, keyed by position so a relabelled series is not a drift —
    plus the extension table ``latency_vs_hops``."""
    figures = {}
    for name, figure in FIGURES.items():
        result = figure()
        figures[name] = {"table": result.table}
        if result.curves:
            figures[name]["series"] = [
                [round(mbs, 4) for mbs in sweep.bandwidths_mbs]
                for sweep in result.curves]
    return dumps_deterministic({"figures": figures,
                                "latency_vs_hops": latency_vs_hops(
                                    PRESETS["pingpong-fm2"])})


#: Goldens that are not one scenario's report: ``{name: fresh text}``.
DERIVED = {OBS_DIGESTS: obs_digests_text, MPI_BINDINGS: mpi_bindings_text,
           PAPER_FIGURES: paper_figures_text}


def main(argv=None) -> int:
    """Rewrite the goldens, or with ``--check`` diff fresh runs against
    them; returns the number of drifted cases (0 = clean)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh reports with the goldens "
                             "instead of rewriting them")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write every fresh report into DIR")
    parser.add_argument("--slow", action="store_true",
                        help=f"include {', '.join(sorted(SLOW))}")
    opts = parser.parse_args(argv)
    out_dir = Path(opts.out) if opts.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    drifted = 0
    for name in [*cases(), *DERIVED]:
        if name in SLOW and not opts.slow:
            continue
        text = DERIVED[name]() if name in DERIVED else fresh_text(name)
        if out_dir is not None:
            (out_dir / f"{name}.json").write_text(text)
        path = GOLDEN_DIR / f"{name}.json"
        if not opts.check:
            path.write_text(text)
            continue
        golden = path.read_text() if path.exists() else ""
        if text != golden:
            drifted += 1
            sys.stdout.writelines(difflib.unified_diff(
                _pretty(golden), _pretty(text),
                f"golden/{name}.json", f"fresh/{name}.json"))
    if opts.check:
        print(f"{drifted} golden report(s) drifted" if drifted
              else "all golden reports match")
    return drifted


def _pretty(text: str) -> list[str]:
    """Indented lines of a canonical report (a one-line file diffs as
    one line otherwise)."""
    if not text:
        return []
    return json.dumps(json.loads(text), sort_keys=True,
                      indent=1).splitlines(keepends=True)


if __name__ == "__main__":
    sys.exit(min(main(), 1))
