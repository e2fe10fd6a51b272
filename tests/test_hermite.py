"""Hermite functions, Mehler kernel, oscillator evolution, decay gate."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline
from scipy.special import eval_hermite

from heisenkit import hermite
from heisenkit.hermite import (
    CausticError,
    _fine_grid,
    MehlerParams,
    gate_boundary_profile,
    hermite_evolve,
    hermite_fn,
    hermite_gate,
    hermite_grid,
    mehler_kernel,
    mehler_kernel_r,
)


def test_hermite_fn_matches_scipy_and_is_orthonormal():
    x = np.linspace(-10.0, 10.0, 2001)
    for k in range(6):
        norm = math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
        want = eval_hermite(k, x) * np.exp(-0.5 * x * x) / norm
        assert np.max(np.abs(hermite_fn(k, x) - want)) < 1e-12
    h = np.stack([hermite_fn(k, x) for k in range(6)])
    gram = np.trapezoid(h[:, None, :] * h[None, :, :], x, axis=-1)
    assert np.allclose(gram, np.eye(6), atol=1e-10)
    with pytest.raises(ValueError):
        hermite_fn(-1, x)


def test_mehler_generating_function_identity():
    # sum_k r^k h_k(x) h_k(y) converges geometrically inside the disc
    x = np.linspace(-2.0, 2.0, 9)
    X, Y = np.meshgrid(x, x, indexing="ij")
    for r in (0.6, 0.4 * np.exp(-0.5j)):
        total = np.zeros(X.shape, dtype=complex)
        for k in range(80):
            total += r ** k * hermite_fn(k, X) * hermite_fn(k, Y)
        assert np.max(np.abs(mehler_kernel_r(r, X, Y) - total)) < 1e-12
    # r = 0 is the ground-state projector
    proj = mehler_kernel_r(0.0, X, Y)
    assert np.allclose(proj, hermite_fn(0, X) * hermite_fn(0, Y), atol=1e-15)


def test_propagator_kernel_keeps_its_modulus_at_large_x():
    # |K| = pi^{-1/2} |1 - e^{-4is}|^{-1/2} = (2 pi |sin 2s|)^{-1/2} for real s
    want = (2.0 * math.pi * abs(math.sin(2.0))) ** -0.5
    assert want == pytest.approx(0.418367, abs=1e-6)
    got = np.abs(mehler_kernel(MehlerParams(1.0), np.array([1e6, 1e8, 5e9]), 0.0))
    assert np.max(np.abs(got - want)) < 1e-12


def test_propagator_kernel_separates_in_n():
    p1 = MehlerParams(0.35, 1)
    p2 = MehlerParams(0.35, 2)
    x = np.array([0.3, -1.1])
    y = np.array([0.9, 0.4])
    k2 = mehler_kernel(p2, x, y)
    k1 = mehler_kernel(p1, x[0], y[0]) * mehler_kernel(p1, x[1], y[1])
    assert k2 == pytest.approx(k1, rel=1e-14)


def test_eigenfunctions_pick_up_their_phases():
    x = np.linspace(-4.0, 4.0, 161)
    s = 0.35
    for k in range(3):
        u = hermite_evolve(lambda y, k=k: hermite_fn(k, y), s, x)
        want = np.exp(-1j * (2 * k + 1) * s) * hermite_fn(k, x)
        assert np.max(np.abs(u - want)) < 1e-10, k


def test_quarter_period_is_the_fourier_transform():
    # e^{-x^2/2} is the Fourier fixed point, so it only picks up e^{-i pi/4}
    x = hermite_grid(8.0, 512)
    u = hermite_evolve(lambda y: np.exp(-0.5 * y * y), math.pi / 4.0, x)
    assert np.max(np.abs(u - np.exp(-0.25j * math.pi) * np.exp(-0.5 * x * x))) < 1e-10


def test_evolution_group_law_and_unitarity():
    x = hermite_grid(8.0, 512)
    f = lambda y: (y + 0.2) * np.exp(-0.8 * y * y)
    u1 = hermite_evolve(f, 0.3, x)
    u2 = hermite_evolve(u1, 0.45, x)
    direct = hermite_evolve(f, 0.75, x)
    assert np.max(np.abs(u2 - direct)) < 1e-10
    norm = lambda v: np.sqrt(np.trapezoid(np.abs(v) ** 2, x))
    assert abs(norm(direct) - norm(f(x))) < 1e-10


def test_two_dimensional_evolution_is_separable():
    x = hermite_grid(8.0, 128)
    F = hermite_fn(0, x)[:, None] * hermite_fn(0, x)[None, :]
    u = hermite_evolve(F, 0.35, x)
    assert np.max(np.abs(u - np.exp(-2j * 0.35) * F)) < 1e-5


def _dense_propagator(s, x, lo, hi):
    """Reference route: the Mehler kernel matrix from x to the engine's fine
    grid on [lo, hi] (same node count, its own linspace step), times
    trapezoid weights."""
    n_fine = _fine_grid(s, x.size, lo, hi)[0].size
    yf, dy = np.linspace(lo, hi, n_fine, retstep=True)
    w = np.full(n_fine, dy)
    w[0] = w[-1] = 0.5 * dy
    K = np.exp(-1j * s) * mehler_kernel_r(np.exp(-2j * s), x[:, None], yf[None, :])
    return yf, K * w


def test_sampled_input_on_an_asymmetric_grid_is_integrated_over_the_samples():
    # the spline through the samples holds on [-4, 8] only; a window of
    # [-max|x|, max|x|] = [-8, 8] would extrapolate it over [-8, -4]
    s = 0.4
    x = np.linspace(-4.0, 8.0, 200)
    f = hermite_fn(0, x)
    yf, K = _dense_propagator(s, x, -4.0, 8.0)
    ref = K @ make_interp_spline(x, f, k=9)(yf)
    # h_0 is still 2.5e-4 of its peak at x = -4
    with pytest.warns(RuntimeWarning, match="not decayed"):
        u = hermite_evolve(f, s, x)
    assert np.max(np.abs(u - ref)) < 1e-11 * np.max(np.abs(ref))


_NEAR_CAUSTIC = (math.pi / 2 - 0.01, math.pi / 2 + 0.01)


@pytest.mark.parametrize("s", _NEAR_CAUSTIC)
def test_factored_engine_matches_the_dense_kernel_near_a_caustic(s):
    x = hermite_grid(8.0, 512)
    yf, K = _dense_propagator(s, x, -8.0, 8.0)
    for k in range(5):
        u = hermite_evolve(lambda y, k=k: hermite_fn(k, y), s, x)
        ref = K @ hermite_fn(k, yf)
        assert np.max(np.abs(u - ref)) < 1e-11 * np.max(np.abs(ref)), k


@pytest.mark.parametrize("s", (0.3, 0.55))
def test_factored_engine_matches_the_dense_kernel_in_two_dimensions(s):
    # a sum of products, so no single column shape repeats across the array
    x = hermite_grid(8.0, 112)
    h = [hermite_fn(k, x) for k in range(4)]
    F = np.outer(h[0], h[1]) + 0.5 * np.outer(h[2], h[0]) + 0.3j * np.outer(h[1], h[3])
    yf, K = _dense_propagator(s, x, -8.0, 8.0)
    half = K @ make_interp_spline(x, F, k=9)(yf)
    ref = (K @ make_interp_spline(x, half.T, k=9)(yf)).T
    u = hermite_evolve(F, s, x)
    assert np.max(np.abs(u - ref)) < 1e-11 * np.max(np.abs(ref))


def test_column_groups_leave_the_two_dimensional_result(monkeypatch):
    x = hermite_grid(8.0, 40)
    h = [hermite_fn(k, x) for k in range(3)]
    F = np.outer(h[0], h[1]) + 0.5j * np.outer(h[2], h[0])
    whole = hermite_evolve(F, 0.4, x)
    monkeypatch.setattr(hermite, "_COLUMN_BUDGET", 1)     # one column a group
    single = hermite_evolve(F, 0.4, x)
    monkeypatch.setattr(hermite, "_COLUMN_BUDGET", 7000)  # uneven groups
    uneven = hermite_evolve(F, 0.4, x)
    peak = np.max(np.abs(whole))
    assert np.max(np.abs(single - whole)) < 1e-14 * peak
    assert np.max(np.abs(uneven - whole)) < 1e-14 * peak


@pytest.mark.parametrize("s", _NEAR_CAUSTIC)
def test_eigenfunctions_pick_up_their_phases_near_a_caustic(s):
    x = hermite_grid(8.0, 512)
    for k in range(5):
        u = hermite_evolve(lambda y, k=k: hermite_fn(k, y), s, x)
        want = np.exp(-1j * (2 * k + 1) * s) * hermite_fn(k, x)
        assert np.max(np.abs(u - want)) < 1e-10, k


def test_near_caustic_evolution_memory_stays_small():
    x = hermite_grid(8.0, 512)
    tracemalloc.start()
    try:
        hermite_evolve(lambda y: hermite_fn(0, y), math.pi / 2 + 0.01, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_truncation_warning_fires_once_for_any_undecayed_column():
    x = hermite_grid(8.0, 64)
    F = np.outer(hermite_fn(0, x), hermite_fn(0, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hermite_evolve(F, 0.4, x)
    F[:, 20] = 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hermite_evolve(F, 0.4, x)
    (message,) = [str(w.message) for w in caught]
    assert re.fullmatch(r"f has not decayed at the grid boundary; the evolution integral "
                        r"is truncated \(edge/peak ~\d\.\de[+-]\d+\)", message)


def test_caustics_are_rejected():
    with pytest.raises(CausticError):
        MehlerParams(0.0)
    with pytest.raises(CausticError):
        MehlerParams(math.pi / 2.0)
    with pytest.raises(CausticError):
        mehler_kernel_r(1.0, 0.0, 0.0)
    with pytest.raises(CausticError):
        hermite_evolve(lambda y: np.exp(-y * y), 0.0)
    # close enough to need more quadrature than the budget allows
    with pytest.raises(CausticError, match="budget"):
        hermite_evolve(lambda y: np.exp(-y * y), 1.5e-6)


def test_evolve_input_validation():
    x = hermite_grid(4.0, 64)
    with pytest.raises(ValueError):
        hermite_evolve(lambda y: np.zeros(3), 0.3, x)
    with pytest.raises(ValueError):
        hermite_evolve(np.zeros(17), 0.3, x)
    with pytest.raises(ValueError):
        hermite_grid(-1.0)
    with pytest.raises(ValueError):
        hermite_grid(8.0, nodes=4)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_evolve_rejects_non_finite_time(s):
    with pytest.raises(ValueError, match="finite"):
        hermite_evolve(lambda y: np.exp(-y * y), s)


def test_evolve_rejects_non_finite_grid():
    x = hermite_grid(4.0, 64)
    x[10] = np.nan
    with pytest.raises(ValueError, match="finite"):
        hermite_evolve(lambda y: np.exp(-y * y), 0.3, x)


@pytest.mark.parametrize("x", [np.array([0.5]), np.array([])], ids=["one", "none"])
def test_evolve_rejects_grids_of_fewer_than_two_nodes(x):
    with pytest.raises(ValueError, match="at least 2"):
        hermite_evolve(lambda y: np.exp(-y * y), 0.3, x)


def test_evolve_rejects_non_finite_samples_of_a_callable():
    x = hermite_grid(4.0, 64)
    with pytest.raises(ValueError, match="samples of f on the quadrature grid must be finite"):
        hermite_evolve(lambda y: np.where(y > 1.0, np.nan, np.exp(-y * y)), 0.3, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_evolve_rejects_non_finite_samples_in_one_and_two_dimensions(bad):
    x = hermite_grid(4.0, 64)
    f = np.exp(-x * x)
    f[30] = bad
    with pytest.raises(ValueError, match="samples of f must be finite"):
        hermite_evolve(f, 0.3, x)
    F = np.outer(np.exp(-x * x), np.exp(-x * x))
    F[30, 12] = bad
    with pytest.raises(ValueError, match="samples of f must be finite"):
        hermite_evolve(F, 0.3, x)


def test_gate_margin_and_boundary_product():
    margin, super_ = hermite_gate(1.0, 1.0, math.pi / 4.0)
    assert margin == pytest.approx(0.75, abs=1e-12) and super_
    margin, super_ = hermite_gate(1.0, 1.0, math.pi / 2.0)
    assert margin == pytest.approx(-0.25, abs=1e-12) and not super_
    with pytest.raises(ValueError):
        hermite_gate(0.0, 1.0, 1.0)

    for a, s0 in [(1.0, math.pi / 8.0), (0.7, 0.5)]:
        b_fit, product = gate_boundary_profile(a, s0)
        assert abs(product - 0.25) < 1e-3, (a, s0)
        want_b = 1.0 / (4.0 * a * math.sin(2.0 * s0) ** 2)
        assert b_fit == pytest.approx(want_b, rel=1e-3)
