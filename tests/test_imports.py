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
one body: numpy for ``cdf`` and ``pdf`` (the delta kernel, whose callers
branch on its zero width, has a ``cdf`` only), ``math`` for the scalar-only
``partial_expectation``, ``antiderivative`` and ``cdf_integral`` of the
adaptive integrands.

The array core of ``dot_model`` (``_lead_values`` and ``_lead_block``)
calls no ``isinstance`` either: it takes and returns arrays only, so no
float fork beside the numpy path can return. ``_combined`` is the one
place where a float level becomes a one-element array and back.

No module imports scipy at module level: ``import chargebit.cli`` loads
numpy and the package only, and scipy is imported inside the functions
that call it. Commands that never reach those functions run without it.

The adaptive quadrature of ``chargebit.numerics`` is internal: the package
exports neither it nor any submodule (``chargebit.__all__`` holds the
public names its ``__init__`` imports, no module), and only its own tests
(``test_numerics.py`` and ``test_logging.py``) import that module. The
other tests take their quadrature oracle from scipy directly. In the
package, ``integrate`` is called only by ``dot_model._broadening_excess``
and ``erasure._window_integral``, the two integrals over a lead's thermal
variable that have no fixed-panel form yet; no third caller may appear.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "chargebit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


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


def _module_level_scipy_imports(source: str) -> list[str]:
    """scipy imports that run on import: any outside a function body."""
    hits = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                hits.append(f"line {child.lineno}")
            visit(child)
    visit(ast.parse(source))
    return hits


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert _module_level_scipy_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_a_module_level_scipy_import():
    source = ("from scipy.special import ndtr\n"
              "def cdf(x):\n"
              "    from scipy.special import ndtr\n"
              "    return ndtr(x)\n"
              "try:\n"
              "    import scipy.integrate as si\n"
              "except ImportError:\n"
              "    pass\n"
              "import scipyish\n")
    assert _module_level_scipy_imports(source) == ["line 1", "line 6"]


def _numerics_imports(source: str) -> list[str]:
    """Imports of chargebit.numerics, however spelled."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        if any(n.split(".")[:2] == ["chargebit", "numerics"] for n in names):
            hits.append(f"line {node.lineno}")
    return hits


@pytest.mark.parametrize(
    "path", [p for p in TEST_MODULES
             if p.name not in ("test_numerics.py", "test_logging.py")],
    ids=lambda p: p.name)
def test_quadrature_is_imported_only_by_its_own_tests(path):
    assert _numerics_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_import_of_numerics():
    source = ("from chargebit.numerics import integrate\n"
              "from chargebit import numerics, erasure\n"
              "import chargebit.numerics as n\n"
              "from chargebit import NonConvergence\n"
              "import chargebit.numerical\n"
              "def f():\n"
              "    from chargebit.numerics import NumericsConfig\n")
    assert _numerics_imports(source) == ["line 1", "line 2", "line 3",
                                         "line 7"]


ADAPTIVE_CALLERS = {("dot_model", "_broadening_excess"),
                    ("erasure", "_window_integral")}


def _integrate_callers(module: str, source: str) -> set[tuple[str, str]]:
    """(module, enclosing top-level name) of each call of integrate; a call
    outside any definition is named by its line."""
    callers = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "integrate" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                callers.add((module, getattr(top, "name",
                                             f"line {node.lineno}")))
    return callers


def test_adaptive_quadrature_is_called_only_where_listed():
    found = set().union(*(_integrate_callers(p.stem,
                                             p.read_text(encoding="utf-8"))
                          for p in MODULES if p.name != "numerics.py"))
    assert found <= ADAPTIVE_CALLERS


def test_guard_names_each_caller_of_integrate():
    source = ("def _window_integral(kt):\n"
              "    def f(s):\n"
              "        return s\n"
              "    return integrate(f, -1.0, 1.0).value\n"
              "class Solver:\n"
              "    def run(self):\n"
              "        return numerics.integrate(abs, 0.0, 1.0)\n"
              "w = integrate(abs, 0.0, 1.0)\n"
              "def other():\n"
              "    return integrated(abs)\n")
    assert _integrate_callers("erasure", source) == {
        ("erasure", "_window_integral"), ("erasure", "Solver"),
        ("erasure", "line 8")}


def test_quadrature_is_not_exported():
    import chargebit

    assert {"integrate", "NumericsConfig",
            "numerics"}.isdisjoint(chargebit.__all__)
    modules = [name for name in chargebit.__all__
               if isinstance(getattr(chargebit, name), types.ModuleType)]
    assert modules == []


_DELTA_DEVICE = """\
temperature_source = 40m
temperature_drain  = 40m
bias        = 200
rate_source = 6.3G
rate_drain  = 250G
kernel      = delta
"""


def test_delta_commands_and_lemmas_run_without_scipy(tmp_path):
    config = tmp_path / "delta.cfg"
    config.write_text(_DELTA_DEVICE)
    script = textwrap.dedent(f"""\
        import sys
        import chargebit.cli as cli
        assert not [m for m in sys.modules if m.startswith("scipy")]
        cfg, out = {str(config)!r}, {str(tmp_path / "out.csv")!r}
        for argv in (["analyze", "--config", cfg, "--eta", "0.1"],
                     ["protocol", "--config", cfg, "--target", "zero",
                      "--duration", "20", "--out", out],
                     ["occupation", "--config", cfg, "--mu-min", "-100",
                      "--mu-max", "300", "--points", "50", "--out", out],
                     ["lemmas", "--trials", "3", "--seed", "1"]):
            assert cli.main(argv) == 0, argv
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, loaded
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_gaussian_cdf_is_scipy_ndtr_bit_for_bit():
    from scipy.special import ndtr

    from chargebit.kernels import Gaussian

    kernel = Gaussian(0.37)
    x = np.linspace(-20.0, 20.0, 1001)
    assert np.array_equal(kernel.cdf(x), ndtr(x / 0.37))
    assert kernel.cdf(1.3) == ndtr(1.3 / 0.37)
