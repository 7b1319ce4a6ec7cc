#!/usr/bin/env python3
"""perfbench: the benchmark of record for the simulator.

    python3 perfbench/run.py                       # all seven workloads
    python3 perfbench/run.py --workload fm_sweep   # one (repeatable flag)
    python3 perfbench/run.py --trace               # per-layer ledger run
    python3 perfbench/run.py --json A.json         # keep the result
    python3 perfbench/run.py --compare A.json B.json

Each workload runs in its own fresh child interpreter, one at a time, one
thread, ``PYTHONHASHSEED=0``: ``setup_s`` is the median over five fresh
interpreters, then one child does a warm-up pass and timed passes of a
fixed-size simulation for ``--seconds``, checking its outputs.  Host times
are in reference seconds (``yardstick.py``: the sandbox's speed drifts by
half under its neighbours; a yardstick loop ticking inside every timed
region cancels that), raw host seconds are printed beside them.  ``--trace``
instead runs one pass under ``cProfile`` and folds host time by layer into
``out/perfbench-trace-<workload>.json``; end-to-end metrics never come from
a traced run.  With exactly one ``--workload`` the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def spawn(workload: str, mode: str, seed: int, seconds: float,
          yard) -> dict:
    """Run ``child.py`` once and return the document on its last line, with
    ``setup_s`` in reference seconds (host speed sampled by ``yard`` here,
    just before the spawn, and by the child just after its set-up)."""
    speed_before = yard.speed()
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--mode", mode, "--seed", str(seed),
               "--seconds", str(seconds), "--out-dir", str(ROOT / "out"),
               "--spawned-at", repr(time.time())]
    done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} ({mode}) child exited "
                           f"{done.returncode}")
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["raw_setup_s"] * (
        speed_before + doc["speed_after_setup"]) / 2
    return doc


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 yard) -> dict:
    """All the child runs one workload needs; returns its result record."""
    import metrics

    if trace:
        doc = spawn(name, "trace", seed, seconds, yard)
        values = metrics.per_layer(doc)
        table = metrics.PER_LAYER
        setup_samples = [doc["setup_s"]]
    else:
        setup_samples = [spawn(name, "setup", seed, seconds, yard)["setup_s"]
                         for _ in range(SETUP_SAMPLES - 1)]
        doc = spawn(name, "plain", seed, seconds, yard)
        setup_samples.append(doc["setup_s"])
        values = metrics.end_to_end(doc, setup_samples)
        table = metrics.END_TO_END
    attempted, failed, reasons = metrics.tally(doc["passes"])
    return {
        "workload": name, "op": doc["op"], "seed": seed, "trace": int(trace),
        "attempted": attempted, "failed": failed, "failures": reasons,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in table if m.name in values},
        "pass_s": [p["pass_s"] for p in doc["passes"]],
        "raw_pass_s": [p["raw_pass_s"] for p in doc["passes"]],
        "ops": doc["passes"][0]["ops"],
        "setup_samples_s": setup_samples,
        "sim_digest": doc["passes"][0]["sim_digest"],
        "notes": doc["passes"][0]["notes"],
        "numpy": doc["numpy"],
        "trace_file": doc.get("trace_file"),
    }


def show(result: dict) -> None:
    from statistics import median

    print(f"\n== {result['workload']}  (op = {result['op']}; "
          f"seed {result['seed']})")
    passes = result["pass_s"]
    if result["trace"]:
        print(f"   untraced pass {passes[0]:.3f} s, traced pass "
              f"{passes[1]:.3f} s -> {result['trace_file']}")
    else:
        raw = result["raw_pass_s"]
        print(f"   pass_s min/median/max = {min(passes):.3f} / "
              f"{median(passes):.3f} / {max(passes):.3f} reference s  "
              f"(n = {len(passes)} timed passes of {result['ops']} ops; raw "
              f"host s {min(raw):.3f} / {median(raw):.3f} / {max(raw):.3f})")
    for name, entry in result["metrics"].items():
        print(f"   {name:<34} {entry['value']:>16.6g}  {entry['unit']}")
    print(f"   {'ops_attempted':<34} {result['attempted']:>16}")
    print(f"   {'ops_failed':<34} {result['failed']:>16}"
          + (f"  {result['failures']}" if result["failures"] else ""))
    print(f"   sim_digest {result['sim_digest']}")
    for name, note in result["notes"].items():
        if isinstance(note, dict):
            for key, value in note.items():
                print(f"     {name}[{key}] = {value:.6g}")
        else:
            print(f"     {name} = {note}")


def host_info() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit}


def contract_line(result: dict, table) -> str:
    """The driver-facing result: exactly the metrics BENCHMARK.json names."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: result["metrics"][m.name]
                    for m in table if m.universal},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed-pass budget per workload (default 10)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer cProfile run")
    parser.add_argument("--json", type=Path, metavar="FILE",
                        help="write the full result document here")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    import metrics
    from yardstick import Yardstick

    known = [entry["name"] for entry in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    names = args.workload or known
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")

    load_before = os.getloadavg()[0]
    yard = Yardstick()
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), yard)
        show(results[name])
    failed = sum(result["failed"] for result in results.values())
    if args.json:
        document = {"perfbench": 1, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds,
                    "host": {**host_info(), "load1_before": load_before,
                             "load1_after": os.getloadavg()[0],
                             "numpy": next(iter(results.values()))["numpy"]},
                    "workloads": results}
        args.json.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nperfbench: {len(results)} workload(s), "
          f"{failed} failed op(s)", flush=True)
    if failed:
        return 1
    if len(names) == 1:
        table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
        print(contract_line(results[names[0]], table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
