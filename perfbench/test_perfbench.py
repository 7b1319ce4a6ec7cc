"""Tests of the benchmark itself, at about 1/50 of its real size.

    PYTHONPATH=src python -m pytest perfbench -q

Not part of the tier-1 suite (``pyproject.toml`` ``testpaths`` does not list
``perfbench``): these check the measuring instrument, not the program.
"""

from __future__ import annotations

import cProfile
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import repro  # noqa: E402
from repro import PPRO_FM2, SPARC_FM1, Cluster  # noqa: E402

import child  # noqa: E402
import compare  # noqa: E402
import drivers  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

PACKAGE_DIR = Path(repro.__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SCALE = 0.02
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def small_pass(name: str, seed: int = 1, profile=None):
    workload = workloads.WORKLOADS[name]()
    state = workload.setup(seed, SCALE)
    if hasattr(workload, "reference"):
        workload.reference(state, workloads.Recorder())
    return workload, state, child.timed_pass(workload, state, profile=profile)


# -- layers and the fold -------------------------------------------------------
def test_every_source_file_maps_to_a_layer():
    seen = set()
    for path in PACKAGE_DIR.rglob("*.py"):
        layer = layers.layer_of(str(path), PACKAGE_DIR)
        assert layer not in (layers.OTHER, layers.DRIVER), path
        seen.add(layer)
    # Every layer BENCHMARK.json names exists as a package today.
    assert set(layers.NAMED_LAYERS) - {layers.DRIVER, layers.OTHER} <= seen
    expect = {"simkernel/env.py": "simkernel", "core/common.py": "core.common",
              "core/fm2/stream.py": "core.fm2", "core/__init__.py": "core",
              "upper/mpi/engine.py": "upper.mpi", "configs.py": "configs",
              "hardware/nic.py": "hardware"}
    for relative, layer in expect.items():
        assert layers.layer_of_module(Path(relative)) == layer
    assert layers.layer_of(str(HERE / "drivers.py"), PACKAGE_DIR) == "driver"
    assert layers.layer_of(json.__file__, PACKAGE_DIR) == "other"


def test_fold_accounts_for_the_whole_profile():
    profile = cProfile.Profile()
    _workload, _state, run = small_pass("fm_sweep", profile=profile)
    assert run["error"] is None
    folded = layers.fold(profile, PACKAGE_DIR)
    assert folded["total_self_s"] == pytest.approx(
        folded["profile_total_s"], rel=0.01)
    assert sum(entry["share"] for entry in folded["layers"].values()) \
        == pytest.approx(1.0)
    for name in ("simkernel", "hardware", "core.fm1", "core.fm2", "driver"):
        assert folded["layers"][name]["self_s"] > 0, name
    for name in ("upper.mpi", "dataflow", "obs", "core.rdma"):
        assert name not in folded["layers"], name
    assert len(folded["top_functions"]) == 15
    assert {"from", "to", "calls"} == set(folded["edges"][0])
    assert set(layers.named(folded["layers"])) == set(layers.NAMED_LAYERS)


# -- names, counts, BENCHMARK.json ----------------------------------------------
def test_benchmark_json_matches_the_code_and_the_limits():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)
    universal = [m for m in metrics.END_TO_END if m.universal]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in universal]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in BENCHMARK["end_to_end"])
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for name in names + [m.name for m in metrics.END_TO_END]:
        assert NAME.fullmatch(name), name
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("higher", "lower")
        assert 0 <= metric.bound <= 0.25
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        assert "\n" not in entry["why"]


def test_paper_reference_names_where_each_number_came_from():
    reference = workloads.PAPER_REFERENCE
    for system in ("fm1", "fm2", "mpi_fm2"):
        for entry in reference[system].values():
            assert {"value", "unit", "where", "read_at"} <= set(entry)
    errors = workloads.paper_errors("fm2", {"latency_us": 12.1,
                                            "peak_mbps": 77.0})
    assert errors == {"fm2.latency_us": pytest.approx(10.0),
                      "fm2.peak_mbps": 0.0}


# -- the workloads, small ----------------------------------------------------------
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_own_checks_and_repeats(name):
    workload, state, first = small_pass(name, seed=2)
    assert first["error"] is None
    result = first["result"]
    assert result.failures == []
    assert result.ops > 0
    for metric in metrics.END_TO_END:
        if metric.exact and metric.universal:
            assert result.sim[metric.name] > 0, metric.name
    second = child.timed_pass(workload, state)["result"]
    assert second.sim_digest == result.sim_digest
    assert second.sim == result.sim
    spans = first["rec"].spans
    assert spans[0]["name"] == "pass" and spans[0]["parent"] is None
    assert {"run", "report"} <= {span["name"] for span in spans}
    assert all(span["end"] >= span["start"] for span in spans)
    attempted, failed, reasons = metrics.tally(
        [child.describe(first), child.describe(first)])
    assert (attempted, failed, reasons) == (2 * result.ops, 0, [])


def test_observed_report_must_equal_the_unobserved_one():
    workload, state, run = small_pass("rpc_sharded_obs")
    assert run["result"].failures == []
    assert run["result"].extra["obs.spans"] > 0
    state["reference"] = [dict(state["reference"][0], sim_end_ns=-1),
                          state["reference"][1]]
    again = child.timed_pass(workload, state)["result"]
    assert again.failures == ["report_differs_from_unobserved"]


def test_failed_checks_and_exceptions_fail_every_op_of_the_pass():
    good = {"ops": 10, "failures": [], "sim_digest": "a"}
    bad = {"ops": 10, "failures": ["payload"], "sim_digest": "a"}
    raised = {"ops": 0, "failures": ["ValueError: x"], "sim_digest": None}
    assert metrics.tally([good, good]) == (20, 0, [])
    assert metrics.tally([good, bad]) == (20, 10, ["payload"])
    assert metrics.tally([good, raised])[:2] == (20, 10)
    drifted = dict(good, sim_digest="b")
    assert metrics.tally([good, drifted])[:2] == (20, 20)

    class Broken(workloads.KernelChain):
        def run(self, state, rec):
            raise ValueError("boom")

    run = child.timed_pass(Broken(), None)
    assert run["result"] is None
    assert child.describe(run)["failures"] == ["ValueError: boom"]


def test_yardstick_turns_raw_seconds_into_reference_seconds(monkeypatch):
    def spin():     # bytecode, not one C call: handlers run between bytecodes
        total = 0
        for i in range(4_000_000):
            total += i
        return total

    yard = yardstick.Yardstick()
    value, raw, reference = yard.measure(spin)
    assert value == sum(range(4_000_000))
    assert raw > 2 * yardstick.PERIOD_S      # long enough to be ticked
    assert 0.2 < reference / raw < 5
    # The same ticks against a reference host twice as fast: the pass was
    # worth half as many reference seconds.
    samples = list(yard._samples)
    monkeypatch.setattr(yardstick, "REFERENCE_TICK_S",
                        yardstick.REFERENCE_TICK_S / 2)
    halved = raw * yardstick.REFERENCE_TICK_S * len(samples) / sum(samples)
    assert halved == pytest.approx(reference / 2)
    workload, state, run = small_pass("kernel_chain")
    ticked = child.timed_pass(workload, state, yard)
    assert ticked["result"].sim_digest == run["result"].sim_digest
    assert ticked["pass_s"] > 0 and ticked["raw_pass_s"] > 0


# -- perfbench's drivers against repro.bench ------------------------------------
def test_drivers_agree_with_repro_bench():
    microbench = pytest.importorskip("repro.bench.microbench")
    mpibench = pytest.importorskip("repro.bench.mpibench")
    rdma_bench = pytest.importorskip("repro.bench.rdma_bench")
    data = workloads.payload(1, 512)
    for machine, version in ((SPARC_FM1, 1), (PPRO_FM2, 2)):
        def fresh():
            return Cluster(2, machine=machine, fm_version=version)
        mine = drivers.fm_stream(fresh(), data, 20)
        theirs = microbench.fm_stream(fresh(), 512, n_messages=20)
        assert mine.check and mine.messages == 20
        assert mine.mbps == theirs.bandwidth_mbs
        pp = drivers.fm_pingpong(fresh(), data[:16], 10)
        assert pp.check
        assert pp.mean_us == microbench.fm_pingpong(
            fresh(), 16, iterations=10).one_way_latency_us

    def fresh():
        return Cluster(2, machine=PPRO_FM2, fm_version=2)
    mine = drivers.mpi_stream(fresh(), data, 20)
    assert mine.check
    assert mine.mbps == mpibench.mpi_stream(fresh(), 512, 20).bandwidth_mbs
    assert drivers.mpi_pingpong(fresh(), data[:16], 10).mean_us \
        == mpibench.mpi_pingpong_latency_us(fresh(), 16, iterations=10)
    put = drivers.rdma_put_stream(fresh(), data, 20)
    assert put.check and put.messages == 20
    assert put.mbps == rdma_bench.rdma_stream(fresh(), 512, n_messages=20)
    get = drivers.rdma_get_stream(fresh(), data, 5)
    assert get.check and get.messages == 5
    barrier = drivers.nic_barriers(
        Cluster(4, machine=PPRO_FM2, fm_version=2), 6)
    assert barrier.check
    assert barrier.mean_us * 1e3 == pytest.approx(
        rdma_bench.nic_barrier_latency_ns(PPRO_FM2, 4, iterations=6))


# -- compare ---------------------------------------------------------------------
def result_document(tmp_path, name="A.json", slower=1.0, sim_shift=0.0,
                    failed=0):
    _workload, _state, run = small_pass("rpc_sharded")
    passes = []
    for jitter in (1.00, 1.01, 0.99, 1.005, 0.995):
        described = child.describe(run)
        described["pass_s"] = 0.5 * jitter * slower
        described["sim"] = dict(described["sim"])
        described["sim"]["sim_p99_us"] += sim_shift
        passes.append(described)
    doc = {"passes": passes, "peak_rss_mb": 60.0}
    values = metrics.end_to_end(doc, [0.40, 0.41, 0.39, 0.40, 0.42])
    attempted = sum(p["ops"] for p in passes)
    values["failed_share"] = failed / attempted
    result = {
        "workload": "rpc_sharded", "op": "request completed", "seed": 1,
        "trace": 0, "attempted": attempted, "failed": failed, "failures": [],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in metrics.END_TO_END if m.name in values},
        "pass_s": [p["pass_s"] for p in passes], "ops": passes[0]["ops"],
        "setup_samples_s": [0.40, 0.41, 0.39, 0.40, 0.42],
        "sim_digest": passes[0]["sim_digest"] + ("x" if sim_shift else ""),
        "notes": {},
    }
    document = {"perfbench": 1, "seed": 1, "trace": 0, "seconds": 8.0,
                "host": {"commit": "test", "python": "3", "nproc": 2},
                "workloads": {"rpc_sharded": result}}
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path, document


def test_compare_of_a_file_with_itself_is_all_same(tmp_path, capsys):
    path, document = result_document(tmp_path)
    table = compare.rows(document, document)
    assert {row["metric"] for row in table} >= {
        "setup_s", "ops_per_s", "peak_rss_mb", "failed_share", "sim_p99_us",
        "sim_digest"}
    assert {row["verdict"] for row in table} == {"same"}
    assert compare.main(path, path) == 0
    assert "0 worse" in capsys.readouterr().out


def test_compare_flags_what_got_worse(tmp_path):
    a, doc_a = result_document(tmp_path, "A.json")
    slow, doc_slow = result_document(tmp_path, "slow.json", slower=1.5)
    verdicts = {row["metric"]: row["verdict"]
                for row in compare.rows(doc_a, doc_slow)}
    assert verdicts["ops_per_s"] == "worse"
    assert verdicts["sim_p99_us"] == "same"
    assert compare.main(a, slow) == 1
    verdicts = {row["metric"]: row["verdict"]
                for row in compare.rows(doc_slow, doc_a)}
    assert verdicts["ops_per_s"] == "better"

    shifted, doc_shifted = result_document(tmp_path, "sim.json", sim_shift=1.0)
    verdicts = {row["metric"]: row["verdict"]
                for row in compare.rows(doc_a, doc_shifted)}
    assert verdicts["sim_p99_us"] == "worse"
    assert verdicts["sim_digest"] == "worse"
    assert verdicts["ops_per_s"] == "same"

    failing, _doc = result_document(tmp_path, "failing.json", failed=3)
    assert compare.main(a, failing) == 1

    noisy = json.loads(json.dumps(doc_a))
    noisy["workloads"]["rpc_sharded"]["pass_s"] = [0.3, 0.5, 0.7, 0.4, 0.6]
    verdicts = {row["metric"]: row["verdict"]
                for row in compare.rows(doc_a, noisy)}
    assert verdicts["ops_per_s"] == "unresolved"
