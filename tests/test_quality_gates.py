"""Repository-wide quality gates: documentation and API hygiene."""

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
    """A capped wait is ``Environment.first_of`` — one event.  ``any_of`` /
    ``all_of`` build a ``Condition`` and belong to the kernel and its two
    once-per-run callers."""
    root = pathlib.Path(repro.__file__).parent
    users = {str(path.relative_to(root)) for path in root.rglob("*.py")
             if re.search(r"\b(any_of|all_of|AnyOf|AllOf)\(", path.read_text())}
    assert users <= {"simkernel/env.py", "simkernel/events.py",
                     "cluster/cluster.py", "dataflow/engine.py"}
