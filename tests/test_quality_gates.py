"""Repository-wide quality gates: documentation and API hygiene."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"]

SRC = Path(repro.__file__).parent
WAIT_MODULE = SRC / "core" / "wait.py"


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


def test_one_idle_wait_policy():
    """The idle-wait cap and the capped wakeup sleep live only in
    ``repro.core.wait``; every other layer goes through it."""
    cap_defined = []
    hand_copied = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        where = str(path.relative_to(SRC))
        if re.search(r"^\s*IDLE_WAIT_CAP_NS\s*=", text, re.MULTILINE):
            cap_defined.append(where)
        if path != WAIT_MODULE and re.search(
                r"any_of\(\[[^\]]*wakeup\(\)", text):
            hand_copied.append(where)
    assert cap_defined == [str(WAIT_MODULE.relative_to(SRC))]
    assert hand_copied == []


def test_tier1_tests_are_not_marked_benchmark(request):
    """``pytest -m "not benchmark"`` must keep the tier-1 suite: the
    ``benchmarks/`` conftest (loaded whenever the tier-1 smoke files are
    collected) marks only the items under its own directory."""
    assert request.node.get_closest_marker("benchmark") is None
