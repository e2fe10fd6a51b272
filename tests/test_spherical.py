"""Bigraded sphere harmonics: dimensions, orthonormality, decomposition."""

from fractions import Fraction

import numpy as np
import pytest

from heisenkit.grids import SpectralSlice, polar_grid
from heisenkit.spherical import (
    build_basis,
    harmonic_part,
    laplacian_terms,
    monomial_keys,
    reconstruct,
    sphere_inner_exact,
    spherical_coefficients,
)


def test_dimension_counts():
    # n = 1: only holomorphic / antiholomorphic monomials are harmonic
    assert build_basis(1, 3, 0).dimension == 1
    assert build_basis(1, 0, 2).dimension == 1
    assert build_basis(1, 1, 1).dimension == 0
    assert build_basis(1, 0, 0).dimension == 1
    # n = 2: (p, 0) sector is the holomorphic degree-p space
    assert build_basis(2, 2, 0).dimension == 3
    # n = 2, (1, 1): four monomials minus the |z|^2 trace
    assert build_basis(2, 1, 1).dimension == 3
    assert build_basis(2, 2, 1).dimension == 4


@pytest.mark.parametrize("n,p,q", [(1, 2, 0), (2, 1, 1), (2, 2, 1)])
def test_elements_are_harmonic_and_orthonormal(n, p, q):
    basis = build_basis(n, p, q)
    for y in basis.elements:
        assert y.laplacian() == {}
    gram = basis.gram()
    assert np.allclose(gram, np.eye(basis.dimension), atol=1e-10)


def test_holomorphic_element_closed_form():
    # Y(omega) = omega^p / sqrt(2 pi) on the circle
    y = build_basis(1, 2, 0).elements[0]
    assert y(1.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi))
    w = 0.8 * np.exp(0.4j)
    want = w ** 2 / np.sqrt(2 * np.pi)
    assert y(w) == pytest.approx(want)


def test_solid_values_scale_as_r_to_the_degree():
    basis = build_basis(2, 1, 1)
    grid = polar_grid(2, nr=16, r_max=3.0)
    y = basis.elements[0]
    vals = y(grid.points())
    on_sphere = y(grid.omega)
    want = grid.r[:, None] ** 2 * on_sphere[None, :]
    assert np.allclose(vals, want, atol=1e-13)


def test_coefficient_extraction_and_reconstruction_roundtrip():
    grid = polar_grid(1, nr=48, r_max=6.0)
    b10 = build_basis(1, 1, 0)
    b01 = build_basis(1, 0, 1)
    g = np.exp(-grid.r ** 2)
    vals = g[:, None] * (b10.elements[0](grid.omega)
                         + 2.0 * b01.elements[0](grid.omega))[None, :]
    f = SpectralSlice(0.7, grid, vals)

    c10 = spherical_coefficients(f, b10, 1)
    c01 = spherical_coefficients(f, b01, 1)
    assert np.allclose(c10.values, g, atol=1e-12)
    assert np.allclose(c01.values, 2.0 * g, atol=1e-12)

    # a sector absent from f has zero coefficient
    c20 = spherical_coefficients(f, build_basis(1, 2, 0), 1)
    assert np.max(np.abs(c20.values)) < 1e-12

    rec = reconstruct({(1, 0, 1): c10, (0, 1, 1): c01}, [b10, b01],
                      grid, lam=0.7)
    assert rec.lam == 0.7
    assert np.allclose(rec.values, vals, atol=1e-12)


def test_coefficients_on_s3_by_quadrature():
    basis = build_basis(2, 2, 1)
    grid = polar_grid(2, nr=12, r_max=2.0)
    j = 2
    f = SpectralSlice(0.0, grid, basis.elements[j - 1](grid.points()))
    prof = spherical_coefficients(f, basis, j)
    assert np.allclose(prof.values, grid.r ** 3, atol=1e-10)
    other = spherical_coefficients(f, basis, 1)
    assert np.max(np.abs(other.values)) < 1e-10


def test_validation():
    with pytest.raises(ValueError):
        build_basis(3, 0, 0)
    with pytest.raises(ValueError):
        build_basis(1, -1, 0)
    grid = polar_grid(1, nr=8, r_max=2.0)
    f = SpectralSlice(0.0, grid, np.zeros((8, 64)))
    basis = build_basis(1, 1, 0)
    with pytest.raises(IndexError):
        spherical_coefficients(f, basis, 2)
    with pytest.raises(TypeError):
        spherical_coefficients(np.zeros(3), basis, 1)
    with pytest.raises(ValueError):
        spherical_coefficients(f, build_basis(2, 1, 0), 1)


@pytest.mark.parametrize("p,q", [(3, 3), (5, 2), (7, 7)])
def test_projection_is_harmonic_and_leaves_a_residual_orthogonal_to_the_sector(p, q):
    basis = build_basis(2, p, q)
    assert basis.dimension == p + q + 1
    elements = [dict(y.terms) for y in basis.elements]
    for alpha, beta in monomial_keys(2, p, q):
        h = harmonic_part(2, alpha, beta)
        assert laplacian_terms(h, 2) == {}
        residual = {(alpha, beta): Fraction(1)}
        for key, c in h.items():
            residual[key] = residual.get(key, Fraction(0)) - c
        for e in elements:
            assert sphere_inner_exact(residual, e, 2) == 0
