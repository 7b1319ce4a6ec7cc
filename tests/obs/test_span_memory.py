"""What an observed run keeps in host memory, per span.

The observer keeps a columnar span log (a 30-byte row per span: a
16-bit site index, two 64-bit times, three 32-bit ids; int attribute
values in 32 bits, other sites' values in a side list; each site interned
once) and builds ``Span`` objects only when ``observer.spans`` is read.
This pins the retained bytes an observed ``rpc-sharded`` run adds over
the same run unobserved, divided by the spans it recorded: about 402 B
while every crossing kept a ``Span`` and an ``attrs`` dict, 124 B with
six 8-byte ints a row and every attr value a pointer, 82 B with narrow
columns and reservoir samples in an ``array("q")``.  The limit sits
~15 % above that.
"""

import gc
import tracemalloc

from repro.workloads.presets import PRESETS
from repro.workloads.runner import execute_scenario

MAX_RETAINED_BYTES_PER_SPAN = 95


def retained_bytes(observe: bool):
    """Bytes still allocated once the run's garbage is collected, with its
    outcome (cluster, stats, observer) alive."""
    gc.collect()
    tracemalloc.start()
    try:
        outcome = execute_scenario(PRESETS["rpc-sharded"], observe=observe)
        gc.collect()
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size, outcome


def test_observed_run_retains_at_most_95_bytes_per_span():
    execute_scenario(PRESETS["rpc-sharded"], observe=True)   # warm caches
    plain, _plain_outcome = retained_bytes(observe=False)
    observed, outcome = retained_bytes(observe=True)
    spans = len(outcome.observer)
    assert spans == 6783
    per_span = (observed - plain) / spans
    assert per_span <= MAX_RETAINED_BYTES_PER_SPAN, (per_span, spans)
