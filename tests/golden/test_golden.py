"""Every scenario report matches its checked-in golden, byte for byte.

"Unchanged" in this repo means *matches golden*: a refactor of the
scenario runner passes this file untouched, and an intentional
re-baseline shows up as a reviewable diff of ``tests/golden/*.json``
(``python tests/golden/regen.py``).  Observers are held to the same
files — attaching one may not move a report byte — and what they export
(trace events, metrics) is pinned by digest in ``obs.digests.json``.
``mpi.bindings.json`` holds the MPI receive path of every binding and
ablation to the nanosecond, event and copied byte, and
``paper.figures.json`` every figure of the paper to the printed digit.
"""

import json

import pytest

from repro.workloads import presets
from repro.workloads.run import main
from repro.workloads.runner import execute_scenario

from tests.golden import regen

FAST = [name for name in regen.cases() if name not in regen.SLOW]
PRESETS = [name for name in FAST if not name.startswith("spec.")]


@pytest.mark.parametrize("name", FAST)
def test_report_matches_golden(name):
    assert regen.fresh_text(name) == regen.golden_text(name)


@pytest.mark.parametrize("name", PRESETS)
def test_observed_report_matches_golden(name):
    assert regen.fresh_text(name, observe=True) == regen.golden_text(name)


@pytest.mark.parametrize("name", regen.OBS_CASES)
def test_observed_export_matches_golden_digest(name):
    golden = json.loads(regen.golden_text(regen.OBS_DIGESTS))
    assert regen.obs_digest(name) == golden[name]


@pytest.mark.parametrize("binding", regen.BINDINGS)
def test_mpi_binding_matches_golden(binding):
    golden = json.loads(regen.golden_text(regen.MPI_BINDINGS))
    assert regen.mpi_binding_entries(binding) == golden[binding]


def test_paper_figures_match_golden():
    assert regen.paper_figures_text() == regen.golden_text(
        regen.PAPER_FIGURES)


def test_rdma_pingpong_report_is_a_clean_transport_run():
    """40 rounds of a 4 KB put each way, and neither NIC dropped an
    unmatched or corrupt one-sided packet."""
    outcome = execute_scenario(presets.PRESETS["rdma-pingpong"])
    assert outcome.report["results"] == {"one_way_latency_us": 68.469,
                                         "round_trips": 40}
    nics = [node.nic for node in outcome.cluster.nodes]
    assert sum(nic.rdma_unmatched for nic in nics) == 0
    assert sum(nic.corrupt_offload_packets for nic in nics) == 0
    assert sum(nic.rdma_write_bytes for nic in nics) == 40 * 2 * 4096


def test_every_case_has_a_golden_and_every_golden_a_case():
    on_disk = {path.stem for path in regen.GOLDEN_DIR.glob("*.json")}
    assert on_disk == {*regen.cases(), *regen.DERIVED}
    assert set(json.loads(regen.golden_text(regen.OBS_DIGESTS))) == set(
        regen.OBS_CASES)
    assert set(json.loads(regen.golden_text(regen.MPI_BINDINGS))) == set(
        regen.BINDINGS)


def test_cli_output_file_is_the_golden_byte_for_byte(tmp_path):
    out = tmp_path / "report.json"
    assert main(["rpc-open", "-o", str(out)]) == 0
    assert out.read_text() == regen.golden_text("rpc-open")
    # The run's health on this host rides beside the report, never in it.
    info = json.loads((tmp_path / "report.runinfo.json").read_text())
    assert set(info) == {"wall_s", "import_s", "scheduled_events", "elided",
                         "ru_maxrss", "python", "numpy"}
    assert info["scheduled_events"] > info["elided"] > 0
