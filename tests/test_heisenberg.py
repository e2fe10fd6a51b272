"""Group law, heat kernel inversion, scaling, and the Gaussian bound check."""

import numpy as np
import pytest

from heisenkit import quadrature
from heisenkit.heisenberg import (
    ComplexTime,
    HeisenbergPoint,
    group_inverse,
    group_law,
    heat_bound_check,
    heat_kernel,
    heat_kernel_grid,
    heat_kernel_lambda,
)
from heisenkit.quadrature import gauss_panels


def test_group_law_twist_sign():
    p = HeisenbergPoint((1.0,), 0.0)
    q = HeisenbergPoint((1j,), 0.0)
    pq = group_law(p, q)
    qp = group_law(q, p)
    assert pq.z == (1.0 + 1.0j,)
    assert pq.t == pytest.approx(-0.5)
    assert qp.t == pytest.approx(0.5)


def test_group_law_associativity_and_inverse():
    a = HeisenbergPoint((0.3 + 0.4j, -1.0j), 0.2)
    b = HeisenbergPoint((1.0 - 0.5j, 0.7), -0.9)
    c = HeisenbergPoint((-0.2j, 0.1 + 0.1j), 0.5)
    left = group_law(group_law(a, b), c)
    right = group_law(a, group_law(b, c))
    assert np.allclose(left.z, right.z) and left.t == pytest.approx(right.t)
    e = group_law(a, group_inverse(a))
    assert np.allclose(e.z, 0.0) and e.t == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        group_law(a, HeisenbergPoint((1.0,), 0.0))


def test_profile_frozen_values():
    # (4 pi)^{-1} / sinh(1) * exp(-coth(1)/4) at zeta = lam = r = 1
    assert heat_kernel_lambda(1.0, 1.0, 1.0) == pytest.approx(
        0.04876597563369762, rel=1e-14)
    assert heat_kernel_lambda(0.5, 0.7, 1.3, n=2) == pytest.approx(
        0.010095680242170193, rel=1e-14)


def test_profile_euclidean_limit_is_continuous():
    r = np.array([0.0, 0.8, 2.1])
    limit = heat_kernel_lambda(1.0, 0.0, r)
    assert np.allclose(limit, (4 * np.pi) ** -1 * np.exp(-r * r / 4), rtol=1e-15)
    near = heat_kernel_lambda(1.0, 2e-8, r)   # just above the limit cut
    assert np.max(np.abs(near - limit) / np.abs(limit)) < 1e-8


def test_profile_pole_raises_for_purely_imaginary_time():
    # sinh(i lam s) = i sin(lam s) vanishes at lam s = pi
    with pytest.raises(ValueError, match="pole"):
        heat_kernel_lambda(ComplexTime(0.0, np.pi), 1.0, 0.5)
    # off the pole the oscillatory profile is fine
    val = heat_kernel_lambda(ComplexTime(0.0, 1.0), 1.0, 0.5)
    assert np.isfinite(val)


def test_kernel_is_real_even_and_radial():
    p = HeisenbergPoint((0.5 + 0.2j,), 0.7)
    v = heat_kernel(1.0, p)
    assert v.imag == 0.0 and v.real > 0
    v_neg = heat_kernel(1.0, HeisenbergPoint((0.5 + 0.2j,), -0.7))
    assert v_neg == pytest.approx(v, rel=1e-12)
    v_rot = heat_kernel(1.0, HeisenbergPoint((abs(0.5 + 0.2j),), 0.7))
    assert v_rot == pytest.approx(v, rel=1e-12)


def test_grid_matches_pointwise_kernel():
    r = np.array([0.0, 0.9, 1.7])
    t = np.array([0.3, -1.1, 0.0])
    grid = heat_kernel_grid(0.8, r, t)
    for i in range(3):
        want = heat_kernel(0.8, HeisenbergPoint((r[i],), t[i]))
        assert abs(grid[i] - want) < 1e-10 * abs(want)


def test_grid_refines_until_two_rules_agree():
    # at Re zeta = 0.3 the first two panel rules disagree by ~7e-7; the
    # refinement must go on to a converged rule instead of raising
    zeta = 0.3 + 1.0j
    r = np.array([0.0, 0.7, 1.5, 3.0])
    t = np.array([-2.5, 0.0, 1.2, 3.0])
    grid = heat_kernel_grid(zeta, r[:, None], t[None, :])
    for i in range(r.size):
        for j in range(t.size):
            want = heat_kernel(zeta, HeisenbergPoint((r[i],), t[j]))
            assert abs(grid[i, j] - want) < 1e-8 * abs(want)


@pytest.mark.parametrize("zeta", [0.8, 1.0 + 0.5j])
def test_separable_grid_matches_pointwise_on_scattered_and_repeated_points(zeta):
    rng = np.random.default_rng(3)
    scattered = (rng.uniform(0.0, 3.0, 9), rng.uniform(-2.5, 2.5, 9))
    # a product grid whose axes repeat values, so the unique maps fold
    r = np.array([0.0, 0.9, 0.9, 1.7])
    t = np.array([0.3, -1.1, 0.3, 0.0])
    product = np.broadcast_arrays(r[:, None], t[None, :])
    for rr, tt in (scattered, product):
        grid = heat_kernel_grid(zeta, rr, tt)
        for idx in np.ndindex(rr.shape):
            want = heat_kernel(zeta, HeisenbergPoint((rr[idx],), tt[idx]))
            assert abs(grid[idx] - want) < 1e-10 * abs(want)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("zeta,r,t,match", [
    (complex(_NAN, 0.0), 0.5, 0.0, "finite"),
    (complex(1.0, _INF), 0.5, 0.0, "finite"),
    (1.0, _NAN, 0.0, "radii"),
    (1.0, _INF, 0.0, "radii"),
    (1.0, 0.5, _NAN, "central"),
    (1.0, 0.5, _INF, "central"),
    (1.0, -0.5, 0.0, "nonnegative"),
], ids=["zeta-nan", "zeta-inf", "r-nan", "r-inf", "t-nan", "t-inf", "r-negative"])
def test_grid_rejects_inputs_outside_its_domain(zeta, r, t, match):
    with pytest.raises(ValueError, match=match):
        heat_kernel_grid(zeta, np.array([0.2, r]), np.array([0.1, t]))


@pytest.mark.parametrize("z,t", [
    ((_NAN,), 0.0),
    ((complex(0.5, _INF),), 0.0),
    ((0.5,), _NAN),
    ((0.5,), _INF),
], ids=["z-nan", "z-inf", "t-nan", "t-inf"])
def test_pointwise_kernel_rejects_non_finite_coordinates(z, t):
    with pytest.raises(ValueError, match="finite"):
        heat_kernel(1.0, HeisenbergPoint(z, t))


@pytest.mark.parametrize("lam,r", [
    (_NAN, 0.5),
    (_INF, 0.5),
    (1.0, _NAN),
    (1.0, np.array([0.5, _INF])),
], ids=["lam-nan", "lam-inf", "r-nan", "r-inf"])
def test_profile_rejects_non_finite_lam_and_r(lam, r):
    with pytest.raises(ValueError, match="finite"):
        heat_kernel_lambda(1.0, lam, r)


def test_grid_blocking_leaves_every_bit(monkeypatch):
    # the smallest budget gathers one point per block
    r = np.linspace(0.0, 3.0, 65)
    whole = heat_kernel_grid(1.0 + 0.5j, r, 0.5)
    monkeypatch.setattr(quadrature, "_GRID_BLOCK", 1)
    assert np.array_equal(heat_kernel_grid(1.0 + 0.5j, r, 0.5), whole)


def test_kernel_n2_grid_vs_adaptive():
    p = HeisenbergPoint((0.6, 0.5j), 0.4)
    want = heat_kernel(1.2, p)
    got = heat_kernel_grid(1.2, np.array([p.z_norm]), np.array([p.t]), n=2)
    assert abs(got[0] - want) < 1e-9 * abs(want)


def test_frequency_roundtrip_recovers_the_profile():
    """Integrating e^{i lam t} q_s(z, t) dt returns the lam-profile."""
    s, lam = 1.0, 1.3
    r = np.array([0.5, 1.4])
    t, w = gauss_panels(-15.0, 15.0, 24, 16)
    q = heat_kernel_grid(s, r[:, None], t[None, :]).real
    got = q @ (w * np.exp(1j * lam * t))
    want = heat_kernel_lambda(s, lam, r)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-7


@pytest.mark.parametrize("n,factor", [(1, 16.0), (2, 64.0)])
def test_parabolic_scaling_law(n, factor):
    # q_{4s}(z, t) = 2^{-2(n+1)} q_s(z/2, t/4)
    s = 0.6
    z = (0.9 + 0.3j,) if n == 1 else (0.9 + 0.3j, 0.4)
    t = 0.8
    lhs = heat_kernel(4 * s, HeisenbergPoint(z, t))
    half = tuple(c / 2 for c in z)
    rhs = heat_kernel(s, HeisenbergPoint(half, t / 4)) / factor
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_heat_bound_constant_is_scale_invariant():
    pts = [HeisenbergPoint((r * np.exp(0.3j),), t)
           for r in (0.0, 0.7, 1.5, 2.5) for t in (-2.0, 0.0, 0.9)]
    c, holds = heat_bound_check(1.0, pts)
    assert holds and c > 0
    shrunk = [HeisenbergPoint(tuple(z / 2 for z in p.z), p.t / 4) for p in pts]
    c2, holds2 = heat_bound_check(0.25, shrunk)
    assert holds2
    assert c2 == pytest.approx(c, rel=1e-6)


def test_time_and_argument_validation():
    with pytest.raises(ValueError):
        ComplexTime(-1.0)
    with pytest.raises(ValueError):
        ComplexTime(0.0, 0.0)
    with pytest.raises(ValueError):
        heat_kernel(ComplexTime(0.0, 1.0), HeisenbergPoint((1.0,), 0.0))
    with pytest.raises(ValueError):
        heat_kernel_lambda(1.0, 1.0, 1.0, n=0)
    with pytest.raises(ValueError):
        heat_bound_check(-1.0, [HeisenbergPoint((1.0,), 0.0)])
    with pytest.raises(ValueError):
        heat_bound_check(1.0, [])
    with pytest.raises(ValueError):
        HeisenbergPoint((), 0.0)
