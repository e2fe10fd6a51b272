"""Every truncated integral warns through `quadrature.warn_truncated`, at its
own threshold, with its own message and the measured edge/peak ratio."""

import ast
import dataclasses
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import heisenkit
from heisenkit.grids import RadialProfile, partial_fourier_t, polar_grid, radial_rule, radial_slice
from heisenkit.hankel import hankel_plan, hankel_transform
from heisenkit.heisenberg import HeisenbergPoint
from heisenkit.hermite import hermite_evolve
from heisenkit import htype
from heisenkit.htype import partial_radon, radon_heat_profile
from heisenkit.propagator import schrodinger_evolve, theorem34_pair
from heisenkit.quadrature import QuadratureError
from heisenkit.specfun import laguerre_fn
from heisenkit.twisted import (_interpolant, _ring_sum, hecke_bochner_check, laguerre_projection,
                               twisted_convolution)

# the pattern that perfbench counts truncation warnings by
_TRUNCATION = re.compile(r"truncat|dropped by zero extension|has not decayed")


def _hankel(c):
    plan = hankel_plan(0.0, r_max=8.0, s_max=2.0)
    F = np.ones(plan.r_nodes.size)
    F[-1] = c * 1e-12
    hankel_transform(plan, F, np.linspace(0.0, 2.0, 5))


def _hermite(c):
    x = np.linspace(-6.0, 6.0, 121)
    f = np.exp(-0.5 * x * x)
    f[0] = f[-1] = c * 1e-10
    hermite_evolve(f, 0.4, x)


def _hermite_2d(c):
    # f's edges are 0 but for both ends of the column through the peak, and
    # so are the edges of its half-evolved rows, E f[:, 0] = E f[:, -1] = 0
    x = np.linspace(-6.0, 6.0, 121)
    g = np.exp(-0.5 * x * x)
    g[0] = g[-1] = 0.0
    f = np.outer(g, g)
    f[0, 60] = f[-1, 60] = c * 1e-10
    hermite_evolve(f, 0.4, x)


def _radon(c):
    # constant 1 inside the nu window, c 1e-10 on its outermost radius: the
    # step sits between the default rule's last two radii
    (rho, _), _ = htype._radial_rules(htype._NU_DECAY, 1.0, 2)
    edge = 0.5 * (rho[-2] + rho[-1])

    def f(p):
        return 1.0 if abs(p.t[1]) < edge else c * 1e-10
    partial_radon(f, (1.0, 0.0), [HeisenbergPoint((0.5,), 0.0)])


def _laguerre_evolution(c):
    grid = polar_grid(1, 32, 6.0, 16)
    v = np.exp(-grid.r ** 2)
    v[-1] = c * 1e-8 * v.max()
    schrodinger_evolve(radial_slice(grid, 1.0, v), 1.0 + 0.5j)


def _fourier_t(c):
    grid = polar_grid(1, 8, 4.0, 8)
    t = np.linspace(-5.0, 5.0, 11)
    values = np.ones((grid.r.size, 8, t.size))
    values[..., [0, -1]] = c * 1e-10
    partial_fourier_t(values, 1.0, grid, t)


def _zero_extension(c):
    # the dropped mass is proportional to the slice's outermost ring, and
    # the warning reports its ratio to the kept mass to two digits
    grid = polar_grid(1, 32, 6.0, 16)
    wide = radial_slice(grid, 1.0, np.exp(-0.1 * grid.r ** 2))
    interp = _interpolant(wide)
    with pytest.warns(RuntimeWarning) as caught:
        _ring_sum(interp, wide, [1.0], [0.3], 1)
    ratio = float(re.search(r"~(\S+)\)", str(caught[0].message)).group(1))
    scaled = dataclasses.replace(interp, boundary=interp.boundary * c * 1e-8 / ratio)
    _ring_sum(scaled, wide, [1.0], [0.3], 1)


def _projection(c):
    r, w = radial_rule(64, 8.0)
    g = np.exp(-r ** 2)
    integrand = np.abs(g * laguerre_fn(0, 1.0, 1, r) * r)
    g[-1] = c * 1e-10 * integrand[:-1].max() / (integrand[-1] / g[-1])
    laguerre_projection(RadialProfile(r, g, weights=w), 0, 1.0, 1)


SITES = {
    "hankel": (_hankel, "profile has not decayed at r_max; transform is truncated"),
    "hermite": (_hermite, "f has not decayed at the grid boundary; "
                          "the evolution integral is truncated"),
    "hermite-2d": (_hermite_2d, "f has not decayed at the grid boundary; "
                                "the evolution integral is truncated"),
    "htype": (_radon, "f has not decayed across the nu window; the Radon integral is truncated"),
    "propagator": (_laguerre_evolution, "slice has not decayed at r_max; "
                                        "the Laguerre projection is truncated"),
    "twisted-fourier-t": (_fourier_t, "f has not decayed at the ends of the t grid; "
                                      "the t integral is truncated"),
    "twisted-zero-extension": (_zero_extension, "mass beyond r_max was dropped by zero extension"),
    "twisted-projection": (_projection, "projection integrand has not decayed at the last node"),
}


@pytest.mark.parametrize("site", SITES)
def test_each_site_warns_above_its_threshold_only(site):
    run, prefix = SITES[site]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(1.1)
    (message,) = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert re.fullmatch(re.escape(prefix) + r" \(edge/peak ~\d\.\de[+-]\d+\)", message), message
    assert _TRUNCATION.search(message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(0.9)


def test_zero_extension_warning_names_the_caller():
    # the warning is raised once the ring sum is done: it names this line,
    # not a frame of twisted.py
    grid = polar_grid(1, 32, 6.0, 16)
    wide = radial_slice(grid, 1.0, np.exp(-0.1 * grid.r ** 2))
    with pytest.warns(RuntimeWarning, match="dropped by zero extension") as caught:
        line = inspect.currentframe().f_lineno + 1
        twisted_convolution(wide, wide)
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


@pytest.mark.parametrize("k", [2, 3])
def test_radon_warns_on_every_face_of_the_nu_window(k):
    # at t = 0 the window's outermost radius is ~a = 16 ln 10 / pi ~ 11.7,
    # where e^{-|t|^2 / 8} is ~4e-8 of its peak, in every direction of the
    # ring, which is the whole face of the window
    with pytest.warns(RuntimeWarning, match="not decayed across the nu window") as caught:
        line = inspect.currentframe().f_lineno + 1
        partial_radon(lambda p: math.exp(-p.t_norm ** 2 / 8.0), np.eye(k)[0],
                      [HeisenbergPoint((0.5,), 0.0)])
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


def test_radon_heat_profile_warning_names_the_caller(monkeypatch):
    # a window of half-width 1 cuts h_1 off where it is still ~e^{-pi}.  The
    # warning comes first; then the window's 5 radii fail their check
    # against 3
    monkeypatch.setattr(htype, "_NU_DECAY", 1.0)
    with pytest.warns(RuntimeWarning, match="not decayed across the nu window") as caught:
        with pytest.raises(QuadratureError, match="radial nu rule"):
            line = inspect.currentframe().f_lineno + 1
            radon_heat_profile(1.0, [0.5], [0.0], n=1, k=3)
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


def test_hecke_bochner_warnings_name_the_caller():
    # e^{-0.05 r^2} is still ~0.45 of its peak at r_max = 4: the ring sum
    # drops mass beyond r_max and the projection integrand has not decayed
    r, weights = radial_rule(64, 4.0)
    g = RadialProfile(r, np.exp(-0.05 * r ** 2), weights=weights)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        hecke_bochner_check(g, 0, 0, 1, (0,), 1.0, 1, 0.9 + 0.0j)
    messages = [str(w.message) for w in caught]
    assert any("dropped by zero extension" in m for m in messages), messages
    assert any("projection integrand has not decayed" in m for m in messages), messages
    assert {(w.filename, w.lineno) for w in caught} == {(__file__, line)}


def test_nested_warnings_name_the_caller():
    # the Laguerre projection and the Hankel transform sit two calls deep in
    # theorem34_pair; e^{-0.1 r^2} is still ~0.4 of its peak at r_max = 3
    grid = polar_grid(1, 64, 3.0)
    t = np.linspace(-5.0, 5.0, 41)
    r2 = np.broadcast_to((grid.r ** 2)[:, None, None], (grid.r.size, grid.omega.shape[0], 1))
    f = np.exp(-0.1 * r2) * np.exp(-t ** 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        theorem34_pair(f, t, 0, 0, 1, 1.0, 0.5, grid)
    messages = [str(w.message) for w in caught]
    assert any("the Laguerre projection is truncated" in m for m in messages), messages
    assert any("transform is truncated" in m for m in messages), messages
    assert {(w.filename, w.lineno) for w in caught} == {(__file__, line)}


# e^{-r^2} is still ~1e-7 of its peak at r_max = 4, past the 1e-8 threshold
_MAIN_SCRIPT = """import numpy as np
from heisenkit import polar_grid, radial_slice, schrodinger_evolve
grid = polar_grid(1, 16, 4.0)
schrodinger_evolve(radial_slice(grid, 1.0, np.exp(-grid.r ** 2)), 1j)
"""


@pytest.mark.parametrize("via", ["-c", "stdin"])
def test_a_warning_aimed_at_a_main_without_source_file_prints(via):
    # the caller is a __main__ whose loader has no source to give
    src = str(pathlib.Path(heisenkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv, stdin = ([sys.executable, "-c", _MAIN_SCRIPT], None) if via == "-c" \
        else ([sys.executable, "-"], _MAIN_SCRIPT)
    done = subprocess.run(argv, input=stdin, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    where = "<string>" if via == "-c" else "<stdin>"
    assert f"{where}:4: RuntimeWarning: slice has not decayed at r_max" in done.stderr, done.stderr


def _warnings_calls(node, function=None):
    """(function, name) of each call of warnings.<name> under node, with
    the innermost function that makes it (None at module level)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    calls = []
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "warnings"
            and node.func.attr.startswith("warn")):
        calls.append((function, node.func.attr))
    for child in ast.iter_child_nodes(node):
        calls += _warnings_calls(child, function)
    return calls


def test_one_function_raises_every_warning():
    # every warning of the package is a truncation warning, aimed at the
    # caller by warn_truncated alone; verify re-emits what its suites caught
    calls = set()
    for path in pathlib.Path(heisenkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.ImportFrom) and node.module == "warnings"
                       for node in ast.walk(tree)), path.name
        assert not any(isinstance(node, ast.keyword) and node.arg == "stacklevel"
                       for node in ast.walk(tree)), path.name
        calls |= {(path.stem, *call) for call in _warnings_calls(tree)}
    assert calls == {("quadrature", "warn_truncated", "warn_explicit"),
                     ("verify", "_run", "warn_explicit")}
