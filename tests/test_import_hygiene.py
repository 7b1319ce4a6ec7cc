"""Cold start: a run imports what it uses.

``src/`` never imports networkx, and imports numpy only where a random
stream or an array is made — so ``import repro``, a ``Cluster``, raw FM and
RDMA / NIC-collective runs load neither.  The scenario kinds that do draw
from numpy have it loaded by the time ``Scenario.from_dict`` returns (set-up,
where ``perfbench`` counts it), not at the first draw of the run.

``sys.modules`` is process-wide and pytest itself has numpy loaded by now, so
every check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_interpreter(script: str, *argv: str) -> dict:
    """Run ``script`` in a new interpreter; its last stdout line, as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


LOADED = """
def loaded():
    return {name: name in sys.modules for name in ("numpy", "networkx")}
"""

EVERY_MODULE = """
import importlib, json, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    importlib.import_module(info.name)
""" + LOADED + """
print(json.dumps(loaded()))
"""


def test_importing_every_module_loads_neither():
    """No module under ``repro`` imports numpy or networkx at import time —
    the layers that use numpy import it where they make a stream or an
    array."""
    assert fresh_interpreter(EVERY_MODULE) == {"numpy": False,
                                               "networkx": False}


RAW_TRANSPORTS = """
import json, sys
import repro
from repro import PPRO_FM2, SPARC_FM1, Cluster
from repro.bench.microbench import fm_pingpong, fm_stream
from repro.core.rdma import NicCollectives, RdmaEndpoint
""" + LOADED + """
facts = {"import repro": loaded()}
Cluster(2, machine=PPRO_FM2, fm_version=2)
facts["Cluster"] = loaded()

fm_pingpong(Cluster(2, machine=PPRO_FM2, fm_version=2), 16, iterations=4)
fm_stream(Cluster(2, machine=SPARC_FM1, fm_version=1), 256, n_messages=8)

cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
initiator, target = (RdmaEndpoint(node) for node in cluster.nodes)
landed = []

def put(node):
    yield node.env.timeout(20_000)      # let the target register first
    yield from initiator.rdma_put(1, 1, node.buffer(64, fill=b"x" * 64), 64)

def land(node):
    buffer = node.buffer(64)
    yield from target.register(buffer)  # rkey 1
    yield from target.wait_completion(lambda c: c.kind == "write")
    landed.append(bytes(buffer.data))

cluster.run([put, land])
assert landed == [b"x" * 64], landed

cluster = Cluster(8, machine=PPRO_FM2, fm_version=2)
colls = [NicCollectives(node, 8) for node in cluster.nodes]
cluster.run([(lambda node, coll=coll: coll.barrier()) for coll in colls])
assert [coll.stats_barriers for coll in colls] == [1] * 8

facts["raw FM 2.x, FM 1.x, rdma_put, NIC barrier"] = loaded()
print(json.dumps(facts))
"""


def test_raw_fm_and_rdma_load_neither_numpy_nor_networkx():
    facts = fresh_interpreter(RAW_TRANSPORTS)
    assert len(facts) == 3
    for step, modules in facts.items():
        assert modules == {"numpy": False, "networkx": False}, step


SCENARIO = """
import json, sys
from dataclasses import asdict
from repro.workloads.presets import PRESETS
from repro.workloads.runner import Scenario, execute_scenario
""" + LOADED + """
facts = {"imported": loaded()}
scenario = Scenario.from_dict(asdict(PRESETS[sys.argv[1]]))
facts["parsed"] = loaded()
if sys.argv[2] == "run":
    execute_scenario(scenario)
    facts["ran"] = loaded()
print(json.dumps(facts))
"""


@pytest.mark.parametrize("preset", ["rpc-open", "dataflow-rollup",
                                    "mpi-allreduce"])
def test_kinds_that_use_numpy_load_it_while_the_spec_is_parsed(preset):
    """Arrival gaps and keys (rpc, pipeline) and the float32 gradient
    (allreduce): importing the runner loads nothing, ``from_dict`` loads
    numpy — before any ``execute_scenario``."""
    facts = fresh_interpreter(SCENARIO, preset, "parse")
    assert facts["imported"] == {"numpy": False, "networkx": False}
    assert facts["parsed"] == {"numpy": True, "networkx": False}


@pytest.mark.parametrize("preset", ["rdma-pingpong", "mpi-halo"])
def test_kinds_that_never_touch_numpy_never_load_it(preset):
    """One-sided puts and the halo exchange move ``bytes``: not while the
    spec is parsed, and not by the end of the run either."""
    facts = fresh_interpreter(SCENARIO, preset, "run")
    assert len(facts) == 3
    for step, modules in facts.items():
        assert modules == {"numpy": False, "networkx": False}, step


REPORT = """
import json, sys
import repro.obs.report
print(json.dumps(sorted(name for name in sys.modules if name.startswith(
    ("repro.workloads", "repro.dataflow", "repro.upper")))))
"""


def test_the_breakdown_report_loads_no_workload():
    """``repro.obs.report`` renders an observed run; the runs themselves
    (workloads, dataflow, the MPI layer) are its caller's imports."""
    assert fresh_interpreter(REPORT) == []
