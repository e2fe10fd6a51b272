"""Every truncated integral warns through `quadrature.warn_truncated`, at its
own threshold, with its own message and the measured edge/peak ratio."""

import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest

from heisenkit.grids import RadialProfile, partial_fourier_t, polar_grid, radial_rule, radial_slice
from heisenkit.hankel import hankel_plan, hankel_transform
from heisenkit.heisenberg import HeisenbergPoint
from heisenkit.hermite import hermite_evolve
from heisenkit.htype import partial_radon
from heisenkit.propagator import schrodinger_evolve
from heisenkit.specfun import laguerre_fn
from heisenkit import twisted
from heisenkit.twisted import _rasterize, _ring_sum, laguerre_projection, twisted_convolution

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


def _radon(c):
    # constant 1 inside the nu window, c 1e-10 on its outermost nodes
    def f(p):
        return 1.0 if abs(p.t[1]) < 9.0 else c * 1e-10
    partial_radon(f, (1.0, 0.0), [HeisenbergPoint((0.5,), 0.0)], half_width=10.0,
                  nu_nodes=24)


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
    # the dropped mass is proportional to the raster's outermost ring, and
    # the warning reports its ratio to the kept mass to two digits
    grid = polar_grid(1, 32, 6.0, 16)
    wide = radial_slice(grid, 1.0, np.exp(-0.1 * grid.r ** 2))
    raster = _rasterize(wide, 64, 16)
    with pytest.warns(RuntimeWarning) as caught:
        _ring_sum(raster, wide, [1.0], [0.3], 1)
    ratio = float(re.search(r"~(\S+)\)", str(caught[0].message)).group(1))
    scaled = dataclasses.replace(raster, boundary=raster.boundary * c * 1e-8 / ratio)
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


def test_zero_extension_warning_names_the_caller(monkeypatch):
    # the node blocks run on a pool, but the warning is raised after their
    # sums are folded, in the calling thread: it names this line, not a
    # frame of twisted.py, concurrent.futures or threading
    monkeypatch.setattr(twisted, "_cpu_count", lambda: 2)
    grid = polar_grid(1, 32, 6.0, 16)
    wide = radial_slice(grid, 1.0, np.exp(-0.1 * grid.r ** 2))
    with pytest.warns(RuntimeWarning, match="dropped by zero extension") as caught:
        line = inspect.currentframe().f_lineno + 1
        twisted_convolution(wide, wide)
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]
