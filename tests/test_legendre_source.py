"""quadrature.py is the only package module that takes Gauss-Legendre nodes
from scipy: every other module places its panels through
quadrature.panel_rule."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fracball"


def _legendre_imports(tree):
    """Lines that import roots_legendre or reach it as an attribute."""
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and any(alias.name == "roots_legendre" for alias in node.names)]
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "roots_legendre"]
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "quadrature.py"),
                         ids=lambda p: p.name)
def test_only_quadrature_imports_roots_legendre(path):
    assert _legendre_imports(ast.parse(path.read_text(), str(path))) == []


def test_quadrature_imports_roots_legendre():
    assert _legendre_imports(ast.parse((SRC / "quadrature.py").read_text())) != []


def test_a_legendre_import_is_found():
    tree = ast.parse("from scipy.special import gamma, roots_legendre\n"
                     "import scipy.special\nx = scipy.special.roots_legendre(4)\n")
    assert _legendre_imports(tree) == [1, 3]
