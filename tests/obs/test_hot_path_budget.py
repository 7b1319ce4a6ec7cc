"""A deterministic budget on what recording a span costs.

Wall-clock cost is perfbench's business (``rpc_sharded_obs`` against
``rpc_sharded``); this file pins the part of it that is a *count* and so
repeats exactly on any host: Python-level calls made inside ``repro/obs``
per recorded span, from one ``cProfile`` run of an observed sharded-RPC
scenario — the same fold ``perfbench/layers.py`` uses for
``obs.calls_per_op`` (a builtin's calls are charged to its caller's file).

Where the number stands on ``rpc-sharded`` (6 783 spans): 14.3 calls per
span before tracks, stage histograms and the bound context were resolved
once instead of per crossing; 7.4 after; 5.65 with the columnar span log;
2.70 now that every site hands ``Observer.record`` a ``Site`` its
component built once, the bound context is read by subscript, and a
histogram sample is its sample list's ``append``.  The bound sits ~20 %
above that, so one more frame or lookup per span anywhere on the path
fails here before it shows up as a slower benchmark.
"""

import cProfile
import pstats
from pathlib import Path

import repro.obs
from repro.workloads.presets import PRESETS
from repro.workloads.runner import execute_scenario

OBS_DIR = str(Path(repro.obs.__file__).parent)
MAX_OBS_CALLS_PER_SPAN = 3.2


def test_obs_calls_per_span_within_budget():
    profile = cProfile.Profile()
    outcome = profile.runcall(execute_scenario, PRESETS["rpc-sharded"],
                              observe=True)
    calls = 0
    for func, (_prim, ncalls, _tt, _ct, callers) in pstats.Stats(
            profile).stats.items():
        if func[0].startswith(OBS_DIR):
            calls += ncalls
        elif func[0] == "~":
            calls += sum(n for caller, (n, *_rest) in callers.items()
                         if caller[0].startswith(OBS_DIR))
    spans = len(outcome.observer.spans)
    assert spans == 6783
    assert calls / spans <= MAX_OBS_CALLS_PER_SPAN, (calls, spans)
