"""`import heisenkit` loads numpy and scipy.special only; QUADPACK, the
splines and the BLAS banded solve load on first use, and every path that
needs them still works.

The checks run in a fresh interpreter, since the test session itself has
long since imported scipy.integrate and scipy.interpolate.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import heisenkit

DEFERRED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
            "scipy.sparse", "scipy.linalg")

SCRIPT = textwrap.dedent(f"""
    import math
    import sys
    import warnings

    import numpy as np

    import heisenkit, heisenkit.cli

    loaded = [m for m in {DEFERRED!r} if m in sys.modules]
    assert not loaded, f"import heisenkit loads {{loaded}}"

    from heisenkit import (HeisenbergPoint, QuadratureError, adaptive_quad,
                           heat_kernel, heat_kernel_grid, hermite_evolve,
                           hille_hardy, polar_grid, radial_slice,
                           slice_value)

    # BLAS banded solve: the Laguerre series on an array of points against
    # its closed form, before anything else has loaded scipy.linalg
    w = np.array([0.6, -0.5j, 0.9 * np.exp(2.0j)])[:, None]
    series, closed = hille_hardy(1.0, np.array([0.0, 1.5, 3.0]), 2.0, w)
    assert series.shape == (3, 3) and "scipy.linalg" in sys.modules
    assert np.max(np.abs(series - closed) / np.abs(closed)) < 1e-9, (series, closed)

    # QUADPACK: the pointwise kernel against the separable engine
    want = heat_kernel_grid(0.8, np.array([0.9]), np.array([-1.1]))[0]
    got = heat_kernel(0.8, HeisenbergPoint((0.9,), -1.1))
    assert abs(got - want) < 1e-9 * abs(want), (got, want)

    # the spline of sampled hermite_evolve against the callable form
    x = np.linspace(-8.0, 8.0, 257)
    def f(y):
        return np.exp(-0.5 * (y - 0.5) ** 2)
    # s = 0.2 refines the quadrature past the grid, so the spline is sampled
    # between nodes (measured gap 5.4e-8)
    sampled, direct = hermite_evolve(f(x), 0.2, x), hermite_evolve(f, 0.2, x)
    assert np.max(np.abs(sampled - direct)) < 1e-6, np.max(np.abs(sampled - direct))

    # the radial spline of the grid twisted convolution's interpolant
    grid = polar_grid(1, nr=64, r_max=6.0, nsphere=16)
    sl = radial_slice(grid, 1.0, lambda r: np.exp(-r * r))
    z0 = 0.8 + 0.3j
    assert abs(slice_value(sl, z0) - math.exp(-abs(z0) ** 2)) < 1e-4

    # an integrand that does not settle: QuadratureError, and no scipy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            adaptive_quad(lambda x: np.cos(2000.0 * x * x), 0.0, 40.0)
        except QuadratureError:
            pass
        else:
            raise AssertionError("adaptive_quad settled on cos(2000 x^2)")
    assert not caught, [str(w.message) for w in caught]
    print("ok")
""")


def test_import_loads_no_quadpack_or_splines_and_deferred_paths_work():
    src = str(pathlib.Path(heisenkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
