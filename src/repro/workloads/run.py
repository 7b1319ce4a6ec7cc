"""CLI: run a workload scenario and emit its JSON report or its breakdown.

    python -m repro.workloads.run rpc-open                 # named preset
    python -m repro.workloads.run --spec scenario.json     # your own spec
    python -m repro.workloads.run rpc-closed -o report.json
    python -m repro.workloads.run list                     # shapes + blurbs
    python -m repro.workloads.run rpc-sharded-slo \\
        --nic-stall 1:2000000:6000000:120000 --trace trace.json
    python -m repro.workloads.run stream-fm2 --breakdown --set msg_bytes=2048
    python -m repro.workloads.run rpc-open --waterfall 2   # + request trees

A spec file is a JSON object of one workload kind's scenario fields:
``kind`` (default ``rpc``) picks the kind, ``name`` is required, and every
other field the kind declares is defaulted.  A field the kind lacks, or a
value of the wrong type, is refused before the run.  Reports are
deterministic JSON (sorted keys, canonical separators): the same spec
produces byte-identical output on every run, so reports can be committed
and diffed.  ``-o R.json`` also writes ``R.runinfo.json`` — wall seconds,
cold-start CPU seconds, event counts, peak RSS, versions: the run's health
on *this* host, so never compared and never part of the report.  Neither
``-o`` nor ``--trace`` creates a directory: a path into a missing one is
refused before the run.

``--set FIELD=VALUE`` (repeatable) changes a field of the preset or spec
(VALUE is JSON, else a string) and is validated like a spec file.
``--breakdown`` prints the observed run's
:class:`~repro.obs.report.BreakdownReport` instead of the JSON;
``--waterfall N`` adds the first N traced requests' critical paths.

``--nic-stall NODE:START:END:EXTRA_NS`` (repeatable) composes a
deterministic :class:`~repro.faults.plan.FaultPlan` of NIC firmware
stalls into the run; ``--trace FILE`` exports the observed spans (with
causal flow arrows) as a Perfetto/Chrome trace-event file, validated
before it is written.  Some presets carry a built-in fault plan
(``PRESET_PLANS`` — e.g. ``rpc-replicated-failover``'s NicStall window);
those compose automatically unless ``--no-fault`` or an explicit
``--nic-stall`` overrides them.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.export import dumps_deterministic, export_trace, trace_events, \
    validate_trace_events
from repro.obs.report import BreakdownReport
from repro.workloads.presets import PRESET_DESCRIPTIONS, PRESET_PLANS, \
    PRESETS
from repro.workloads.runner import Scenario, execute_scenario


def parse_nic_stall(text: str):
    """``NODE:START:END:EXTRA_NS`` -> :class:`~repro.faults.plan.NicStall`."""
    from repro.faults.plan import NicStall

    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"--nic-stall wants NODE:START:END:EXTRA_NS, got {text!r}")
    try:
        node, start_ns, end_ns, extra_ns = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--nic-stall fields must be integers, got {text!r}")
    try:
        return NicStall(node=node, start_ns=start_ns, end_ns=end_ns,
                        extra_ns=extra_ns)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--nic-stall {text!r}: {exc}")


def parse_setting(text: str) -> tuple[str, object]:
    """``FIELD=VALUE`` -> ``(field, value)``: VALUE as JSON, or as the
    string itself when it is not JSON."""
    field, equals, value = text.partition("=")
    if not equals or not field:
        raise argparse.ArgumentTypeError(
            f"--set wants FIELD=VALUE, got {text!r}")
    try:
        return field, json.loads(value)
    except ValueError:
        return field, value


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run a preset or ``--spec`` scenario, print a report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.run",
        description="Run a deterministic workload scenario and report "
                    "latency/throughput/drops as JSON.",
    )
    parser.add_argument(
        "preset", nargs="?", default=None,
        help=f"named scenario to run (one of: {', '.join(sorted(PRESETS))}; "
             "or 'list' to print each one's shape and description)",
    )
    parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="JSON file of Scenario fields (instead of a preset)",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="FIELD=VALUE",
        type=parse_setting,
        help="change a scenario field (repeatable; VALUE is JSON, else a "
             "string), e.g. --set replicas=2",
    )
    parser.add_argument(
        "--observe", action="store_true",
        help="attach the observer (spans + the stats' registry); results "
             "are bit-identical either way",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="export the observed spans as a Perfetto trace-event file "
             "(implies --observe)",
    )
    parser.add_argument(
        "--nic-stall", action="append", default=[], metavar="N:S:E:X",
        type=parse_nic_stall,
        help="inject a NIC firmware stall: NODE:START_NS:END_NS:EXTRA_NS "
             "(repeatable; composes a deterministic FaultPlan)",
    )
    parser.add_argument(
        "--no-fault", action="store_true",
        help="suppress a preset's built-in fault plan (some presets, e.g. "
             "rpc-replicated-failover, compose a NicStall window by "
             "default)",
    )
    parser.add_argument(
        "--breakdown", action="store_true",
        help="print the observed run's breakdown report instead of JSON",
    )
    parser.add_argument(
        "--waterfall", type=int, default=0, metavar="N",
        help="with the breakdown (implied), draw the first N traced "
             "requests' waterfalls and critical paths (rpc presets)",
    )
    parser.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="write the report here instead of stdout",
    )
    opts = parser.parse_args(argv)

    if opts.preset == "list":
        for name in sorted(PRESETS):
            scenario = PRESETS[name]
            sharded = (f" servers={scenario.servers} "
                       f"balancer={scenario.balancer}"
                       if getattr(scenario, "servers", 1) > 1 else "")
            print(f"{name}: kind={scenario.kind} nodes={scenario.n_nodes} "
                  f"fm={scenario.fm_version}{sharded}  "
                  f"{PRESET_DESCRIPTIONS[name]}")
        return 0
    if (opts.preset is None) == (opts.spec is None):
        parser.error("give exactly one of: a preset name, or --spec FILE")
    if opts.spec is None and opts.preset not in PRESETS:
        parser.error(f"unknown preset {opts.preset!r}; "
                     f"choices: {', '.join(sorted(PRESETS))}")
    if opts.waterfall < 0:
        parser.error(f"--waterfall must be >= 0, got {opts.waterfall}")
    breakdown = opts.breakdown or opts.waterfall > 0
    observe = opts.observe or opts.trace is not None or breakdown
    # A spec or override the scenario rejects, a spec file that cannot be
    # read and an output path whose directory is missing are usage errors
    # (exit 2, one line) found before the run, not tracebacks after it;
    # anything raised once the run has started still propagates.
    try:
        for flag, target in (("-o", opts.out), ("--trace", opts.trace)):
            if target is not None and not Path(target).parent.is_dir():
                raise ValueError(f"{flag} {target}: no directory "
                                 f"{Path(target).parent} (not created here)")
        if opts.spec is not None:
            scenario = Scenario.from_dict(
                json.loads(Path(opts.spec).read_text()))
        else:
            scenario = PRESETS[opts.preset]
        if opts.set:
            scenario = Scenario.from_dict({**asdict(scenario),
                                           **dict(opts.set)})
        scenario.preload()
        plan = None
        if opts.nic_stall:
            from repro.faults.plan import FaultPlan

            plan = FaultPlan(seed=scenario.seed,
                             episodes=tuple(opts.nic_stall))
        elif opts.preset in PRESET_PLANS and not opts.no_fault:
            plan = PRESET_PLANS[opts.preset]
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    # Cold start: CPU seconds used so far (interpreter, imports, spec).  Not
    # a stamp at the top of this file, which ``python -m`` reaches only after
    # importing the ``repro.workloads`` package, i.e. nearly everything.
    import_s = time.process_time()
    started = time.perf_counter()
    outcome = execute_scenario(scenario, plan=plan, observe=observe)
    wall_s = time.perf_counter() - started
    if opts.trace is not None:
        validate_trace_events(trace_events(outcome.observer.spans))
        print(export_trace(outcome.observer, opts.trace), file=sys.stderr)
    text = dumps_deterministic(outcome.report)
    if opts.out is not None:
        out = Path(opts.out)
        out.write_text(text)
        env = outcome.cluster.env
        out.with_suffix(".runinfo.json").write_text(json.dumps({
            "wall_s": round(wall_s, 3),
            "import_s": round(import_s, 3),
            "scheduled_events": env.scheduled_events,
            "elided": env.elided,
            "ru_maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "python": platform.python_version(),
            # null when the run never loaded it (raw FM, RDMA).
            "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        }, indent=1, sort_keys=True) + "\n")
        text = opts.out
    if breakdown:
        text = BreakdownReport.of(outcome).render(opts.waterfall)
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
