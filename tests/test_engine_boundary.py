"""The engines never import the grid twisted-convolution oracle module, one
module drives the central-frequency integrals, one function takes a slice's
angular DFT, and the pointwise heat-kernel oracle shares no profile code
with the engines."""

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


def _referenced_names(tree):
    """Every name and attribute that a module's code mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_only_heisenberg_drives_the_frequency_integrals():
    # `heisenberg._central_integral` is the one caller of the trapezoid rule
    # and of the step and radius cutoffs that size it, and
    # `heisenberg._lam_cutoff` the one caller of the cutoff solver: a second
    # frequency integral, or a second theory of their sizing, would have to
    # mention them
    users = {}
    engines = ("even_trapezoid", "envelope_cutoff", "_strip_step", "_radius_cutoffs")
    for path in sorted(pathlib.Path(heisenkit.__file__).parent.glob("*.py")):
        if path.stem == "quadrature":
            continue
        names = set(_referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
        for name in engines:
            if name in names:
                users.setdefault(name, []).append(path.stem)
    assert users == {name: ["heisenberg"] for name in engines}


def test_only_grids_angular_modes_takes_an_angular_dft():
    # which signed modes a sampled slice carries, and how an even angle
    # count's Nyquist bin splits, is decided in `grids.angular_modes` alone:
    # no other function may take a forward DFT, and the engine and both
    # halves of the grid oracle read their modes from it.  The engine's
    # inverse transform only resynthesises, so it is not a DFT here.
    forward, callers = set(), []
    for path in sorted(pathlib.Path(heisenkit.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(function, ast.FunctionDef):
                continue
            called = {node.func.attr if isinstance(node.func, ast.Attribute)
                      else getattr(node.func, "id", None)
                      for node in ast.walk(function) if isinstance(node, ast.Call)}
            if called & {"fft", "rfft", "fftfreq", "rfftfreq"}:
                forward.add(f"{path.stem}.{function.name}")
            if "angular_modes" in called:
                callers.append(f"{path.stem}.{function.name}")
    assert forward == {"grids.angular_modes"}
    assert sorted(callers) == ["propagator.schrodinger_evolve", "twisted._interpolant",
                               "twisted._ring_sum"]


def test_pointwise_heat_kernel_oracle_has_its_own_profile():
    # `heat_kernel` checks `heat_kernel_grid`, and `htype_heat_kernel`
    # checks `htype_heat_batch`: if either read the engines' hyperbolic
    # factors, a fault there would pass on both sides
    def functions(module):
        path = pathlib.Path(heisenkit.__file__).with_name(f"{module}.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    heisenberg, htype = functions("heisenberg"), functions("htype")
    for oracle in (heisenberg["heat_kernel"], htype["htype_heat_kernel"]):
        assert "_profile" in set(_referenced_names(oracle)), oracle.name
    for node in (heisenberg["heat_kernel"], heisenberg["_profile"], htype["htype_heat_kernel"]):
        names = set(_referenced_names(node))
        assert not names & {"_hyperbolic_factors", "_central_integral"}, node.name
