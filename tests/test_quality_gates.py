"""Repository-wide quality gates: documentation and API hygiene."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

PACKAGES = ["repro"]


def iter_modules():
    seen = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        seen.append(package)
        for info in pkgutil.walk_packages(package.__path__,
                                          prefix=package.__name__ + "."):
            seen.append(importlib.import_module(info.name))
    return seen


ALL_MODULES = iter_modules()


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=[m.__name__ for m in ALL_MODULES])
def test_every_module_has_a_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=[m.__name__ for m in ALL_MODULES])
def test_every_public_class_documented(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isclass(obj):
            continue
        if obj.__module__ != module.__name__:
            continue  # re-export
        assert obj.__doc__, f"{module.__name__}.{name} lacks a docstring"


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=[m.__name__ for m in ALL_MODULES])
def test_every_public_function_documented(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue
        assert obj.__doc__, f"{module.__name__}.{name} lacks a docstring"


def test_package_all_exports_resolve():
    for module in ALL_MODULES:
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.__all__: {name}"


def test_version_is_set():
    assert repro.__version__


def test_conditions_stay_off_the_hot_paths():
    """A capped wait is ``Environment.first_of`` — one event.  The counter
    join ``all_of`` belongs to the kernel and its two once-per-run
    callers; there is no ``AnyOf`` / ``AllOf`` to build."""
    root = pathlib.Path(repro.__file__).parent
    users = {str(path.relative_to(root)) for path in root.rglob("*.py")
             if re.search(r"\b(any_of|all_of|AnyOf|AllOf)\(", path.read_text())}
    assert users == {"simkernel/env.py", "cluster/cluster.py",
                     "dataflow/engine.py"}


def _occurrences(needle):
    """``needle`` counted per file of ``src/repro``, files without it left
    out."""
    root = pathlib.Path(repro.__file__).parent
    return {str(path.relative_to(root)): n for path in root.rglob("*.py")
            if (n := path.read_text().count(needle))}


def test_capped_waits_are_the_three_known_sites():
    """``first_of`` call sites, counted per file: the idle wait, the
    completion-queue wait and the one deadline wait for a request.  An FM 2.x
    handler slice is not one — the extractor drives the handler, it does not
    wait for it."""
    assert _occurrences("first_of(") == {
        "simkernel/env.py": 1,          # the definition
        "core/common.py": 1, "core/rdma/api.py": 1, "workloads/rpc.py": 1}


def test_layers_above_fm_send_through_send_gather():
    """The ``FM_begin_message`` / ``FM_send_piece`` / ``FM_end_message``
    sequence is spelled out under ``core/fm2`` only."""
    assert set(_occurrences("begin_message(")) == {"core/fm2/api.py"}


def test_the_poll_back_off_is_written_once_per_driver():
    """``extract_until`` and the arrival-keyed ping-pong in ``microbench``,
    the lean no-FM driver in ``breakdown``, and ``swreliable``'s own
    constant: no third copy of the raw-FM receive loop."""
    assert _occurrences("yield IDLE_POLL_NS") == {
        "bench/microbench.py": 2, "bench/breakdown.py": 1,
        "ext/swreliable.py": 1}


def test_a_sleep_is_yielded_as_an_int():
    """A process that only lets time pass yields the delay (``yield ns``);
    ``env.timeout`` is for an event somebody holds, such as a wait's cap."""
    root = pathlib.Path(repro.__file__).parent
    assert [str(path.relative_to(root)) for path in root.rglob("*.py")
            if re.search(r"yield [\w.]*timeout\(", path.read_text())] == []


def test_hardware_stamps_hops_and_the_observer_records_them():
    """A wire, forward, tx or rx crossing is a hop stamp on the packet; the
    observer builds its span where the packet leaves the hardware.  So the
    switch never reads ``env.obs``, the link only where it drops a packet,
    and the NIC never names the two spans it stamps for."""
    from repro.hardware.link import Link
    readers = _occurrences("env.obs")
    assert "hardware/switch.py" not in readers
    assert readers["hardware/link.py"] == 1
    assert "env.obs" in inspect.getsource(Link._apply_faults)
    nic = (pathlib.Path(repro.__file__).parent / "hardware/nic.py").read_text()
    assert '"tx_firmware"' not in nic and '"rx_dma"' not in nic


def test_one_windowed_sum_and_one_window_read():
    """A windowed sum is ``RateSeries``, the registry's meters included, and
    a reservoir keeps every sample; the supervisor reads its per-window
    good/bad counts through ``slo.window_counts`` like the report does."""
    for needle in ("RateMeter", "capacity"):
        assert [path for path in _occurrences(needle)
                if path.startswith("obs/")] == [], needle
    assert "workloads/replication.py" not in _occurrences("window_sum")


def test_no_fm_layer_spawns_a_process():
    """Handlers run inside ``FM_extract`` (inline on FM 1.x, as the
    extractor's coroutine on FM 2.x); nothing under ``core`` starts a kernel
    process."""
    core = pathlib.Path(repro.__file__).parent / "core"
    assert [str(path.relative_to(core)) for path in core.rglob("*.py")
            if "env.process(" in path.read_text()] == []


def test_one_registry_per_run():
    """A run's stats count into their own ``Metrics`` registry, which an
    observed run's observer adopts: nothing is registered after the fact,
    and a counter bag is a ``collections.Counter``."""
    for needle in ("federate", "register_counters", "register_histogram",
                   "simkernel.monitor", "Counters("):
        assert _occurrences(needle) == {}, needle


def test_a_link_errs_only_through_a_fault_plan():
    """``LinkParams`` describes the wire and nothing else: a noisy or lossy
    link is a ``LinkFault`` episode.  So the substrate draws no random
    numbers; only ``repro.faults`` does."""
    from repro.hardware.params import LinkParams
    assert [field.name for field in dataclasses.fields(LinkParams)] == [
        "bandwidth", "propagation_ns", "slots"]
    assert [path for path in _occurrences("import numpy")
            if path.split("/")[0] in
            ("hardware", "core", "simkernel", "cluster")] == []


def test_the_kernel_keeps_only_what_the_model_uses():
    """Event operators, ``any_of``, priority queueing, the lock subclass,
    process interrupts, ``StopProcess``, the active-process counter, the
    ``Condition`` family and the test-only handles (``defuse``, a request
    as a context manager, ``cancel_get``) had no caller outside their own
    tests; they stay deleted.  The event recorder the determinism and
    kernel tests compare histories with is a test helper
    (``tests/_tracer.py``); the kernel keeps only the ``env.trace`` hook it
    chains on."""
    for needle in ("def __or__", "def __and__", "def any_of",
                   "PriorityResource", "Mutex", "held_by_anyone",
                   "class Interrupt", "StopProcess", "def interrupt",
                   "_cancel_sleep", "_active_processes", "class Condition",
                   "class AnyOf", "class AllOf", "def defuse",
                   "def __enter__", "def cancel_get"):
        assert _occurrences(needle) == {}, needle
    root = pathlib.Path(repro.__file__).parent
    assert not (root / "simkernel" / "trace.py").exists()
    assert _occurrences("simkernel.trace") == {}
    assert _occurrences("Tracer") == {}


def test_a_scenario_declares_only_what_its_kind_reads():
    """Each workload kind is its own frozen scenario class, declaring the
    fields its run reads.  The per-kind lists that once patched one flat
    ``Scenario`` (what a kind reads, which fields its reports show, the
    report's hide-list) stay deleted."""
    for needle in ("def report_fields", "is read by kind", ".reads =",
                   "scenario_report_dict"):
        assert _occurrences(needle) == {}, needle


def test_every_span_is_recorded_through_a_site():
    """One recording path: a component builds each of its ``Site`` objects
    once and hands one to ``Observer.record`` with the attr values in
    order.  Nothing under ``src/repro`` calls a ``span()``, passes attrs
    to ``record`` by keyword, or formats a track at a call."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            keywords = {kw.arg for kw in node.keywords}
            if node.func.attr == "span" or (
                    node.func.attr == "record"
                    and not keywords <= {"t_end", "ctx", "span_id"}):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
    assert _occurrences("obs.span(") == {}
    assert _occurrences('track=f"') == {}


def test_only_the_kernel_moves_the_clock():
    """``Environment.now`` is a plain slot that everyone reads and only the
    kernel writes: no module under ``src/repro`` but ``simkernel/env.py``
    assigns a ``now``, and the ``_now`` slot behind the old property is
    gone."""
    root = pathlib.Path(repro.__file__).parent
    writers = set()
    for path in root.rglob("*.py"):
        text = path.read_text()
        assert not re.search(r"\b_now\b", text), path.relative_to(root)
        for node in ast.walk(ast.parse(text)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(
                           node, (ast.AugAssign, ast.AnnAssign)) else [])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == "now":
                        writers.add(str(path.relative_to(root)))
    assert writers == {"simkernel/env.py"}
