"""``run.py --compare A.json B.json``: did B get worse than A?

One row per (end-to-end metric, workload) with both values, the bound and a
verdict:

* exact metrics (simulated clock, counts, ``failed_share``, ``sim_digest``)
  compare with ``==``: ``same`` or, by the metric's direction, ``better`` /
  ``worse``; a differing digest is ``worse`` (the simulated output is not
  what it was, which a host-time change must never cause);
* host metrics compare medians against the metric's bound.  ``better`` when
  every B sample beats every A sample or the median improved by more than
  the bound, ``worse`` when it fell by more than the bound, ``same`` within
  it — but ``unresolved`` when either side's own spread (interquartile
  range over median of its samples) is wider than the bound, because then
  the bound cannot tell a change from noise.

Exit status is non-zero on any ``worse`` or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import metrics


def samples_of(result: dict, name: str) -> list[float]:
    """Every sample behind a host metric (one value when it has no more)."""
    if name == "ops_per_s":
        return [result["ops"] / pass_s for pass_s in result["pass_s"]]
    if name == "setup_s":
        return list(result["setup_samples_s"])
    return [result["metrics"][name]["value"]]


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median (0 below 4 samples:
    too few to speak of quartiles).  The samples are all of a run's passes,
    a population and not a draw from one, hence ``inclusive``."""
    if len(samples) < 4:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(samples)


def verdict_exact(metric: metrics.Metric, a: float, b: float) -> str:
    if a == b:
        return "same"
    improved = b > a if metric.better == "higher" else b < a
    return "better" if improved else "worse"


def verdict_host(metric: metrics.Metric, a: list[float],
                 b: list[float]) -> str:
    sign = 1.0 if metric.better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a) / med_a
    if len(a) > 1 and len(b) > 1 and \
            min(sign * x for x in b) > max(sign * x for x in a):
        return "better"
    if max(spread(a), spread(b)) > metric.bound:
        return "unresolved"
    if gain < -metric.bound:
        return "worse"
    return "better" if gain > metric.bound else "same"


def rows(doc_a: dict, doc_b: dict) -> list[dict]:
    out = []
    same_seed = doc_a["seed"] == doc_b["seed"]
    for workload, res_a in doc_a["workloads"].items():
        res_b = doc_b["workloads"].get(workload)
        if res_b is None:
            continue
        for metric in metrics.END_TO_END:
            if metric.name not in res_a["metrics"] \
                    or metric.name not in res_b["metrics"]:
                continue
            a = res_a["metrics"][metric.name]["value"]
            b = res_b["metrics"][metric.name]["value"]
            if metric.exact:
                verdict = (verdict_exact(metric, a, b) if same_seed
                           else "unresolved")
                bound = "=="
            else:
                sam_a = samples_of(res_a, metric.name)
                sam_b = samples_of(res_b, metric.name)
                verdict = verdict_host(metric, sam_a, sam_b)
                a, b = statistics.median(sam_a), statistics.median(sam_b)
                bound = f"{metric.bound:.0%}"
            out.append({"workload": workload, "metric": metric.name,
                        "unit": metric.unit, "a": a, "b": b, "bound": bound,
                        "verdict": verdict})
        same = res_a["sim_digest"] == res_b["sim_digest"]
        out.append({"workload": workload, "metric": "sim_digest", "unit": "",
                    "a": res_a["sim_digest"][:12], "b": res_b["sim_digest"][:12],
                    "bound": "==",
                    "verdict": ("same" if same else "worse") if same_seed
                    else "unresolved"})
    return out


def main(path_a: Path, path_b: Path) -> int:
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    if doc_a["trace"] or doc_b["trace"]:
        print("perfbench: --compare takes plain runs; end-to-end metrics "
              "never come from a traced run")
        return 2
    table = rows(doc_a, doc_b)
    print(f"A = {path_a} ({doc_a['host']['commit'][:12]}, seed {doc_a['seed']})"
          f"   B = {path_b} ({doc_b['host']['commit'][:12]}, "
          f"seed {doc_b['seed']})")
    print(f"{'workload':<16} {'metric':<18} {'A':>14} {'B':>14} "
          f"{'unit':<9} {'bound':>5}  verdict")
    for row in table:
        a, b = (f"{v:.6g}" if isinstance(v, float) else str(v)
                for v in (row["a"], row["b"]))
        print(f"{row['workload']:<16} {row['metric']:<18} {a:>14} {b:>14} "
              f"{row['unit']:<9} {row['bound']:>5}  {row['verdict']}")
    counts = {v: sum(row["verdict"] == v for row in table)
              for v in ("better", "same", "worse", "unresolved")}
    print("perfbench compare: " + ", ".join(
        f"{n} {verdict}" for verdict, n in counts.items()))
    failed_rise = any(
        row["metric"] == "failed_share" and row["b"] > row["a"]
        for row in table)
    return 1 if counts["worse"] or failed_rise else 0
