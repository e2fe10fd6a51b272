"""`import heisenkit` loads numpy and no scipy subpackage.  Each of them,
the special functions, QUADPACK, the splines and the BLAS banded solve,
loads on the first call that needs it, and every path that needs one still
works.  The commands that call none (`gate`, and `kernel` on the Heisenberg
group and the oscillator) load none.

The checks run in a fresh interpreter, since the test session itself has
long since imported scipy.integrate and scipy.interpolate.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import heisenkit

# numpy.f2py comes with scipy.special's array-API shim
DEFERRED = ("scipy.special", "scipy.integrate", "scipy.interpolate", "scipy.optimize",
            "scipy.sparse", "scipy.linalg", "numpy.f2py")

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


CLI_SCRIPT = textwrap.dedent(f"""
    import contextlib
    import io
    import sys

    from heisenkit import cli

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(list(argv)) == 0, argv
        return out.getvalue().splitlines()

    # the commands that call no special function load no scipy subpackage
    assert len(run("gate", "--which", "heisenberg", "--a", "0.5,1", "--b", "0.6",
                   "--s0", "1", "--lambda", "0,0.7", "--eps", "0.1")) == 5
    assert len(run("kernel", "--group", "heisenberg", "--s", "0.8", "--r", "0,0.9",
                   "--t", "0.4")) == 3
    assert len(run("kernel", "--group", "heisenberg", "--s", "0.8", "--r", "0,0.9",
                   "--slice-lambda", "1.5")) == 3
    assert len(run("kernel", "--group", "hermite", "--s", "0.7", "--x", "0,0.5",
                   "--y", "0.2")) == 3
    loaded = [m for m in {DEFERRED!r} if m in sys.modules]
    assert not loaded, f"gate and kernel load {{loaded}}"

    # the H-type kernel needs J_0: scipy.special loads here, and exit 0 means finite rows
    rows = run("kernel", "--group", "htype", "--k", "2", "--s", "1", "--v-norm", "0.5,1",
               "--t-norm", "0.4")
    assert len(rows) == 3 and "scipy.special" in sys.modules
    print("ok")
""")


def _run_fresh(script):
    src = str(pathlib.Path(heisenkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_import_loads_no_quadpack_or_splines_and_deferred_paths_work():
    _run_fresh(SCRIPT)


def test_gate_and_kernel_commands_load_no_scipy_subpackage():
    _run_fresh(CLI_SCRIPT)
