"""Fold a ``cProfile`` run into per-layer host time.

A *layer* is a package under ``src/repro/``; its name comes from the file
path alone (first component, two for ``core/*`` and ``upper/*``), so a new
package gets a layer without editing this file.  perfbench's own files are
``driver``; everything else (stdlib, numpy, networkx) is ``other``.
Builtin / C functions have no file: their self-time and calls are charged
to the layer of each *calling* function, using the per-caller split that
``pstats`` keeps.
"""

from __future__ import annotations

import pstats
from pathlib import Path

DRIVER_DIR = Path(__file__).resolve().parent
#: Packages split one level deeper, because FM 1.x, FM 2.x, RDMA and MPI
#: are the layers the paper's accounting is about.
SPLIT_PACKAGES = ("core", "upper")
DRIVER = "driver"
OTHER = "other"

#: The layers BENCHMARK.json names, in stack order.  The trace file keeps
#: whatever layers the fold finds; the fixed list only shapes the metric
#: names, and layers outside it are folded into ``other`` there.
NAMED_LAYERS = ("simkernel", "hardware", "cluster", "core.common", "core.fm1",
                "core.fm2", "core.rdma", "upper.mpi", "workloads", "dataflow",
                "obs", DRIVER, OTHER)


def layer_of_module(relative: Path) -> str:
    """Layer of a file given relative to the ``repro`` package directory."""
    parts = relative.with_suffix("").parts
    head = parts[0]
    if head in SPLIT_PACKAGES and len(parts) > 1 and parts[1] != "__init__":
        return f"{head}.{parts[1]}"
    return head


def layer_of(filename: str, package_dir: Path) -> str:
    """Layer of a profiled function from its ``co_filename``."""
    path = Path(filename)
    if path.is_relative_to(package_dir):
        return layer_of_module(path.relative_to(package_dir))
    if path.is_relative_to(DRIVER_DIR):
        return DRIVER
    return OTHER


def fold(profile, package_dir: Path) -> dict:
    """Per-layer self seconds and calls, cross-layer call edges and the
    functions with the most self-time, from one ``cProfile.Profile``."""
    stats = pstats.Stats(profile).stats
    layer_cache: dict[str, str] = {}

    def layer(func) -> str:
        filename = func[0]
        found = layer_cache.get(filename)
        if found is None:
            found = layer_cache[filename] = layer_of(filename, package_dir)
        return found

    layers: dict[str, list] = {}      # name -> [self seconds, calls]
    edges: dict[tuple[str, str], int] = {}
    functions = []

    def charge(name: str, seconds: float, calls: int) -> None:
        entry = layers.setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += calls

    for func, (_prim, ncalls, self_s, _cum, callers) in stats.items():
        if func[0] == "~":
            # Builtin: split among callers.  A builtin nobody profiled
            # calling (the profiler's own ``disable``) stays with the driver.
            if callers:
                for caller, (n, _p, tt, _ct) in callers.items():
                    charge(layer(caller) if caller[0] != "~" else OTHER,
                           tt, n)
            else:
                charge(DRIVER, self_s, ncalls)
            continue
        mine = layer(func)
        charge(mine, self_s, ncalls)
        functions.append((self_s, ncalls, func))
        for caller, (n, _p, _tt, _ct) in callers.items():
            theirs = layer(caller) if caller[0] != "~" else OTHER
            if theirs != mine:
                edges[(theirs, mine)] = edges.get((theirs, mine), 0) + n

    total = sum(entry[0] for entry in layers.values())
    functions.sort(key=lambda item: (-item[0], item[2]))
    return {
        "total_self_s": total,
        "profile_total_s": sum(entry[2] for entry in stats.values()),
        "layers": {
            name: {"self_s": entry[0], "calls": entry[1],
                   "share": entry[0] / total if total else 0.0}
            for name, entry in sorted(layers.items())},
        "edges": [{"from": a, "to": b, "calls": n}
                  for (a, b), n in sorted(edges.items())],
        "top_functions": [
            {"layer": layer(func), "function": func[2],
             "file": _short(func[0], package_dir), "line": func[1],
             "self_s": self_s, "calls": ncalls}
            for self_s, ncalls, func in functions[:15]],
    }


def _short(filename: str, package_dir: Path) -> str:
    path = Path(filename)
    for base in (package_dir.parent, DRIVER_DIR.parent):
        if path.is_relative_to(base):
            return str(path.relative_to(base))
    return path.name


def named(fold_layers: dict) -> dict[str, dict]:
    """The fold reduced to :data:`NAMED_LAYERS` (unlisted layers join
    ``other``), every name present."""
    out = {name: {"self_s": 0.0, "calls": 0} for name in NAMED_LAYERS}
    for name, entry in fold_layers.items():
        slot = out[name if name in out else OTHER]
        slot["self_s"] += entry["self_s"]
        slot["calls"] += entry["calls"]
    return out
