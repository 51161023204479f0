"""Repository-wide quality gates: documentation and API hygiene."""

import ast
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

#: Imports kept on purpose although their module does not use them:
#: ``(module path under SRC, name)``.  ``perfbench/layers.py`` reads the
#: idle-wait cap through the rpc module it measures.
REEXPORTED_IMPORTS = {("workloads/rpc.py", "IDLE_WAIT_CAP_NS")}


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


def _annotation_names(node) -> set[str]:
    """Names an annotation uses, including inside string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads (``__all__`` counts as a
    read; ``from __future__`` imports are directives, not names)."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    where = str(path.relative_to(SRC))
    return [f"{where}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used and (where, name) not in REEXPORTED_IMPORTS]


def test_no_unused_imports():
    """Every non-package module reads what it imports (package
    ``__init__`` files import to re-export, so they are exempt)."""
    unused = [entry for path in sorted(SRC.rglob("*.py"))
              if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == []
