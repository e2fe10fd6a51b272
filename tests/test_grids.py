"""Radial profiles, polar grids, sphere rules, and CSV round trips."""

import numpy as np
import pytest

from heisenkit.grids import (
    PolarGrid,
    RadialProfile,
    SpectralSlice,
    polar_grid,
    radial_rule,
    sphere_area,
)


def test_radial_profile_integrate():
    r, w = radial_rule(64, 7.0)
    prof = RadialProfile(r, np.exp(-r * r), weights=w, weight_power=1.0)
    # int_0^inf e^{-r^2} r dr = 1/2
    assert prof.integrate() == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        RadialProfile(r, np.exp(-r * r)).integrate()


def test_radial_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile(np.array([1.0, 0.5]), np.zeros(2))
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.5, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.5, 1.0]), np.zeros(2), weights=np.zeros(3))


def test_sphere_rules_integrate_monomials():
    # n = 1: the circle rule resolves modes up to its node count
    g1 = polar_grid(1, nr=8, r_max=2.0)
    assert np.sum(g1.omega_weights) == pytest.approx(sphere_area(1), rel=1e-14)
    modes = g1.omega[:, 0] ** 3
    assert abs(np.sum(g1.omega_weights * modes)) < 1e-13
    # n = 2: |z_1|^2 integrates to half the surface area of S^3
    g2 = polar_grid(2, nr=8, r_max=2.0)
    assert np.sum(g2.omega_weights) == pytest.approx(sphere_area(2), rel=1e-12)
    got = np.sum(g2.omega_weights * np.abs(g2.omega[:, 0]) ** 2)
    assert got == pytest.approx(0.5 * sphere_area(2), rel=1e-12)


def test_polar_grid_measure_integrates_gaussians():
    # int_{C^n} e^{-|z|^2} dz = pi^n
    for n in (1, 2):
        g = polar_grid(n, nr=48, r_max=7.0)
        total = float(np.sum(g.measure() * np.exp(-g.r[:, None] ** 2)))
        assert total == pytest.approx(np.pi ** n, rel=1e-10)
    with pytest.raises(ValueError):
        polar_grid(3)


def test_points_shape_and_slice_norm():
    g = polar_grid(1, nr=32, r_max=6.0, nsphere=32)
    pts = g.points()
    assert pts.shape == (32, 32, 1)
    sl = SpectralSlice(0.5, g, np.exp(-np.abs(pts[:, :, 0]) ** 2))
    # ||e^{-|z|^2}||_2^2 = pi/2
    assert sl.norm2() == pytest.approx(np.sqrt(np.pi / 2.0), rel=1e-10)
    assert sl.n == 1
    with pytest.raises(ValueError):
        SpectralSlice(0.5, g, np.zeros((4, 4)))


def test_same_as_detects_grid_identity():
    g = polar_grid(1, nr=12, r_max=2.0)
    h = polar_grid(1, nr=12, r_max=2.0)
    assert g.same_as(h)
    assert not g.same_as(polar_grid(1, nr=10, r_max=2.0))
