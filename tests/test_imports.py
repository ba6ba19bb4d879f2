"""Static guards over the package source.

Every module-level import in the package is used by its module. No linter
runs on this code base, so this guard keeps a deletion from leaving a stale
import behind. ``__init__.py`` is skipped: its imports are the package's
public names.

No module but ``kernels.py`` tests a kernel's type. Code elsewhere reads
the kernel's data instead (``width == 0`` for no broadening, an infinite
``mad`` for a kernel without a mean), so a new kernel needs no edits
outside its own class.

``kernels.py`` calls no ``isinstance`` at all, so each kernel method keeps
one body: numpy for ``cdf`` and ``pdf``, ``math`` for the scalar-only
``partial_expectation``.

The array core of ``dot_model`` (``_lead_values`` and ``_lead_block``)
calls no ``isinstance`` either: it takes and returns arrays only, so no
float fork beside the numpy path can return. ``_combined`` is the one
place where a float level becomes a one-element array and back.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "chargebit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_import():
    assert _unused_imports("import math\nfrom os import path as p\n"
                           "p.join\n") == ["line 1: math"]


KERNEL_TYPES = {"Delta", "Gaussian", "Lorentzian"}


def _kernel_type_tests(source: str) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        named = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(node.args[1])
                 if isinstance(n, (ast.Name, ast.Attribute))}
        if named & KERNEL_TYPES:
            hits.append(f"line {node.lineno}")
    return hits


@pytest.mark.parametrize("path",
                         [p for p in MODULES if p.name != "kernels.py"],
                         ids=lambda p: p.name)
def test_no_kernel_type_test_outside_kernels(path):
    assert _kernel_type_tests(path.read_text(encoding="utf-8")) == []


def test_guard_flags_a_kernel_type_test():
    source = ("isinstance(k, Delta)\nisinstance(x, float)\n"
              "isinstance(k, (int, kernels.Lorentzian))\n"
              "isinstance(k, Gaussian | Delta)\n")
    assert _kernel_type_tests(source) == ["line 1", "line 3", "line 4"]


def _isinstance_calls(tree: ast.AST) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"]


def test_kernels_call_no_isinstance():
    assert _isinstance_calls(ast.parse((PACKAGE / "kernels.py").read_text(
        encoding="utf-8"))) == []


def test_guard_flags_an_isinstance_call():
    source = ("def cdf(self, x):\n"
              "    if isinstance(x, float):\n"
              "        return 0.5\n"
              "    return type(x)\n")
    assert _isinstance_calls(ast.parse(source)) == ["line 2"]


ARRAY_CORE = {"_lead_values", "_lead_block"}


def _array_core_isinstance_calls(source: str) -> list[str]:
    """isinstance calls inside the array-core functions, which must exist."""
    found = {node.name: node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name in ARRAY_CORE}
    assert set(found) == ARRAY_CORE
    return [f"{name} {hit}" for name, node in sorted(found.items())
            for hit in _isinstance_calls(node)]


def test_array_core_calls_no_isinstance():
    assert _array_core_isinstance_calls((PACKAGE / "dot_model.py").read_text(
        encoding="utf-8")) == []


def test_guard_flags_an_isinstance_call_in_the_array_core():
    source = ("def _lead_values(d, kt, kernel, names):\n"
              "    scalar = isinstance(d, float)\n"
              "def _lead_block(d, kt, kernel, names):\n"
              "    return d\n"
              "def _combined(mu, sys, names):\n"
              "    return isinstance(mu, float)\n")
    assert _array_core_isinstance_calls(source) == ["_lead_values line 2"]
    with pytest.raises(AssertionError):
        _array_core_isinstance_calls("def _lead_block(d):\n    return d\n")
