"""One workload in one fresh interpreter.

``run.py`` starts this file as a child process (one at a time, one thread)
and reads a single JSON document from the last line of its standard output.
Three modes:

* ``setup`` — only set up (import ``repro``, parse specs, generate inputs,
  build the first ``Cluster`` / ``Environment``) and report how long that
  took since the parent spawned the process;
* ``plain`` — set up, one warm-up pass, then timed passes for ``--seconds``
  (at least :data:`MIN_PASSES`); end-to-end metrics come only from here;
* ``trace`` — set up, warm-up, one untraced timed pass (the base of the
  host-time counters and of ``trace.overhead_x``), then one pass under
  ``cProfile`` folded by layer and written to ``out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from time import perf_counter

MIN_PASSES = 3


def timed_pass(workload, state, yard=None, profile=None) -> dict:
    """Run one pass; returns its seconds, result and recorder.  ``pass_s``
    is in reference seconds when a yardstick ticks along (see
    ``yardstick.py``), raw host seconds otherwise; ``raw_pass_s`` is always
    the host's own."""
    from workloads import Recorder

    rec = Recorder()
    outcome = {"rec": rec, "result": None, "error": None}

    def run():
        with rec.span("pass"):
            try:
                outcome["result"] = workload.run(state, rec)
            except Exception as exc:  # a pass that raises fails all its ops
                import traceback

                traceback.print_exc()
                outcome["error"] = f"{type(exc).__name__}: {exc}"

    gc.collect()
    if yard is not None:
        _, raw, reference = yard.measure(run)
    else:
        if profile is not None:
            profile.enable()
        t0 = perf_counter()
        run()
        raw = reference = perf_counter() - t0
        if profile is not None:
            profile.disable()
    return {**outcome, "pass_s": reference, "raw_pass_s": raw}


def describe(run: dict) -> dict:
    """The JSON form of one pass."""
    result, rec = run["result"], run["rec"]
    doc = {"pass_s": run["pass_s"], "raw_pass_s": run["raw_pass_s"],
           "build_s": rec.build_s, "counts": dict(rec.counts)}
    if result is None:
        return {**doc, "ops": 0, "failures": [run["error"]], "sim": {},
                "sim_digest": None, "extra": {}, "notes": {}}
    return {**doc, "ops": result.ops, "failures": result.failures,
            "sim": result.sim, "sim_digest": result.sim_digest,
            "extra": result.extra, "notes": result.notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace"),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.time() just before the spawn")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    setup_start = perf_counter()
    import repro
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    state = workload.setup(args.seed)
    setup_end = perf_counter()
    raw_setup_s = time.time() - args.spawned_at
    from yardstick import Yardstick

    yard = Yardstick()
    doc = {
        "workload": workload.name, "op": workload.op, "mode": args.mode,
        "seed": args.seed,
        # Interpreter start cannot carry a yardstick: the parent samples the
        # host's speed just before the spawn, this samples it just after
        # set-up, and the parent scales by the mean of the two.
        "raw_setup_s": raw_setup_s,
        "speed_after_setup": yard.speed(),
    }
    if args.mode == "setup":
        print(json.dumps(doc))
        return 0

    warmup = timed_pass(workload, state, yard)
    doc["warmup_s"] = warmup["pass_s"]
    if hasattr(workload, "reference"):
        # rpc_sharded_obs: the unobserved twin, run once — its report is
        # what every observed pass must reproduce exactly.
        from workloads import Recorder

        _, _raw, doc["reference_s"] = yard.measure(
            lambda: workload.reference(state, Recorder()))

    passes = []
    if args.mode == "plain":
        deadline = perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or \
                perf_counter() + warmup["raw_pass_s"] <= deadline:
            passes.append(describe(timed_pass(workload, state, yard)))
    else:
        import cProfile

        import layers

        passes.append(describe(timed_pass(workload, state, yard)))
        profile = cProfile.Profile()
        traced = timed_pass(workload, state, profile=profile)
        passes.append(describe(traced))
        folded = layers.fold(profile, Path(repro.__file__).resolve().parent)
        # Host seconds since this process began setting up; the gap between
        # `setup` and `pass` is the warm-up and the untraced pass.
        spans = [{"id": 0, "name": "setup", "parent": None, "start": 0.0,
                  "end": setup_end - setup_start}]
        spans += [{**span, "id": span["id"] + 1,
                   "parent": None if span["parent"] is None
                   else span["parent"] + 1,
                   "start": span["start"] - setup_start,
                   "end": span["end"] - setup_start}
                  for span in traced["rec"].spans]
        args.out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = args.out_dir / f"perfbench-trace-{workload.name}.json"
        trace_path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "ops": passes[-1]["ops"],
            "traced_pass_s": traced["raw_pass_s"],
            "untraced_pass_s": passes[0]["raw_pass_s"],
            "spans": spans, **folded}, indent=1) + "\n")
        doc["trace_file"] = str(trace_path)
        doc["fold_layers"] = folded["layers"]

    import resource

    doc["passes"] = passes
    doc["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    numpy = sys.modules.get("numpy")
    doc["numpy"] = numpy.__version__ if numpy is not None else None
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
