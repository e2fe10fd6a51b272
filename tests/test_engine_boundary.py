"""The engines never import the grid twisted-convolution oracle module."""

import ast
import pathlib

import pytest

import heisenkit

ENGINES = ("specfun", "quadrature", "grids", "hankel", "heisenberg", "spherical",
           "propagator", "hermite", "htype")


def _imported_modules(tree):
    """Absolute names of the package modules that a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "heisenkit." * (node.level > 0) + (node.module or "")
            yield base.rstrip(".")
            yield from (f"{base.rstrip('.')}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_does_not_import_twisted(engine):
    path = pathlib.Path(heisenkit.__file__).with_name(f"{engine}.py")
    names = set(_imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
    assert "heisenkit.twisted" not in names, f"{engine} imports heisenkit.twisted"
