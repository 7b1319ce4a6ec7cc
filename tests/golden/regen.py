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
attribute or label shows up here.

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
import hashlib
import json
import sys
from pathlib import Path

from repro.obs.export import dumps_deterministic, trace_events
from repro.workloads.presets import PRESET_PLANS, PRESETS
from repro.workloads.runner import Scenario, execute_scenario, run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent
SPEC_DIR = GOLDEN_DIR.parents[1] / "perfbench" / "specs"
SLOW = frozenset({"rpc-aggregate-100k"})
#: The golden holding the observed-export digests, and the cases it covers
#: (one per workload kind that records spans, plus the perfbench spec the
#: observer's cost is measured on).
OBS_DIGESTS = "obs.digests"
OBS_CASES = ("rpc-sharded", "dataflow-rollup", "mpi-halo", "rdma-pingpong",
             "spec.rpc_uniform")


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
    """Run case ``name`` now and return its canonical report."""
    scenario, plan = cases()[name]
    return dumps_deterministic(
        run_scenario(scenario, plan=plan, observe=observe))


def obs_digest(name: str) -> dict:
    """Run case ``name`` observed and digest what the observer exports."""
    scenario, plan = cases()[name]
    observer = execute_scenario(scenario, plan=plan, observe=True).observer
    return {"spans": len(observer.spans),
            "trace_sha256": _sha256(trace_events(observer.spans)),
            "metrics_sha256": _sha256(observer.metrics.as_dict())}


def _sha256(obj) -> str:
    return hashlib.sha256(dumps_deterministic(obj).encode()).hexdigest()


def obs_digests_text() -> str:
    """The canonical ``obs.digests.json`` of a fresh run of ``OBS_CASES``."""
    return dumps_deterministic({name: obs_digest(name) for name in OBS_CASES})


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
    for name in [*cases(), OBS_DIGESTS]:
        if name in SLOW and not opts.slow:
            continue
        text = (obs_digests_text() if name == OBS_DIGESTS
                else fresh_text(name))
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
