"""Bigraded spherical harmonics and the radial factorization they induce.

Functions on C^n split into sectors indexed by a holomorphic and an
antiholomorphic degree.  Expanding a product g(|z|) P(omega) in that basis
recovers each sector's radial profile, and twisted convolution of a
radial-times-harmonic function with a Laguerre function factors through a
shifted-dimension Laguerre expansion.  Both facts are exercised here.
"""

import numpy as np

from heisenkit import (RadialProfile, SpectralSlice, build_basis,
                       hecke_bochner_check, polar_grid, radial_rule,
                       spherical_coefficients)

basis10 = build_basis(1, 1, 0)
basis01 = build_basis(1, 0, 1)
print(f"dim H_(1,0) = {basis10.dimension}, dim H_(0,1) = {basis01.dimension} at n = 1")
print(f"gram deviation from identity: "
      f"{np.max(np.abs(basis10.gram() - np.eye(1))):.2e}")

grid = polar_grid(1, nr=48, r_max=6.0)
y10 = basis10.elements[0](grid.omega)
y01 = basis01.elements[0](grid.omega)
g = np.exp(-grid.r ** 2)
sl = SpectralSlice(0.0, grid, g[:, None] * (y10 + 2.0 * y01)[None, :])

c10 = spherical_coefficients(sl, basis10, 1)
c01 = spherical_coefficients(sl, basis01, 1)
i = int(np.argmin(np.abs(grid.r - 1.0)))
print("radial coefficients of g(r) (Y_10 + 2 Y_01) at r = 1:")
print(f"  sector (1,0): {c10.values[i].real:.8f} (want {g[i]:.8f})")
print(f"  sector (0,1): {c01.values[i].real:.8f} (want {2 * g[i]:.8f})")

nodes, weights = radial_rule(128, 8.0)
gprof = RadialProfile(nodes, np.exp(-nodes ** 2), weights=weights)
z = np.array([0.9 + 0.0j, 0.7 + 0.5j])
print("radial-times-harmonic factorization, g = exp(-r^2), n = 1:")
for p, q in ((1, 0), (0, 1)):
    [(lhs, rhs)] = hecke_bochner_check(gprof, p, q, 1, (p,), 1.0, 1, z)
    print(f"  (p,q) = ({p},{q}): max rel error "
          f"{np.max(np.abs(lhs - rhs) / np.abs(rhs)):.2e}")
[(lhs, _)] = hecke_bochner_check(gprof, 1, 0, 1, (0,), 1.0, 1, z)
print(f"  mismatched sector k < p annihilates: max |lhs| = {np.max(np.abs(lhs)):.2e}")
