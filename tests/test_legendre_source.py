"""No package module imports scipy, and quadrature.py is the only one that
makes Gauss-Legendre nodes: every other module places its panels through
quadrature.panel_rule, whose rules come from quadrature.gauss_jacobi."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fracball"
MODULES = sorted(SRC.glob("*.py"))

# the names a module would take Gauss-Legendre nodes from
_LEGENDRE_SOURCES = {"roots_legendre", "gauss_jacobi"}


def _legendre_imports(tree):
    """Lines that import a Gauss-Legendre source or reach it as an
    attribute."""
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and any(alias.name in _LEGENDRE_SOURCES for alias in node.names)]
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in _LEGENDRE_SOURCES]
    return sorted(lines)


def _scipy_imports(tree):
    """Lines that import scipy or one of its modules, at any depth of the
    module, or name one in an import_module or __import__ call."""
    def scipy(name):
        return name is not None and name.split(".")[0] == "scipy"

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found = any(scipy(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found = node.level == 0 and scipy(node.module)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            found = (name in ("import_module", "__import__") and node.args
                     and isinstance(node.args[0], ast.Constant)
                     and isinstance(node.args[0].value, str) and scipy(node.args[0].value))
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "quadrature.py"],
                         ids=lambda p: p.name)
def test_only_quadrature_imports_roots_legendre(path):
    assert _legendre_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert _scipy_imports(ast.parse(path.read_text(), str(path))) == []


def test_a_legendre_import_is_found():
    tree = ast.parse("from scipy.special import gamma, roots_legendre\n"
                     "import scipy.special\nx = scipy.special.roots_legendre(4)\n"
                     "from .quadrature import gauss_jacobi\n"
                     "y = quadrature.gauss_jacobi(4, 0.0, 0.0)\n")
    assert _legendre_imports(tree) == [1, 3, 4, 5]


def test_a_scipy_import_is_found():
    tree = ast.parse("import numpy, scipy.linalg\n"
                     "from scipy.special import gammaln\n"
                     "from . import scipy_free\n"
                     "import scipyx\n"
                     "def f():\n"
                     "    import scipy\n"
                     "m = importlib.import_module('scipy.special')\n"
                     "n = __import__('scipy')\n"
                     "o = importlib.import_module('numpy.linalg')\n")
    assert _scipy_imports(tree) == [1, 2, 6, 7, 8]
