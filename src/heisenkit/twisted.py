"""Central-frequency slices and the twisted convolution on C^1.

(f *_lam g)(z) = int f(z-w) g(w) e^{i lam Im(z . conj(w)) / 2} dw.

The grid route evaluates the integral on the shared polar grid: the slice
being translated is first resampled onto a fine uniform (rho, theta) raster
(cubic splines radially, trigonometric interpolation in angle, which is exact
for band-limited angular dependence), and f(z-w) is then gathered bilinearly
from the raster.  The quadrature route below it is an entirely independent
nested adaptive integral used as the oracle in tests.

Neither route is an engine.  Evolution by the heat kernel, the only twisted
convolution the package needs at scale, runs through the Laguerre multiplier
in `propagator.schrodinger_evolve`.  The grid route stays as the oracle that
checks it: the twisted-semigroup check (q_a *_lam q_b = q_{a+b}) runs on the
grid because that is the one test of the twist phase that shares no code
with the Laguerre expansion, and `hecke_bochner_check` runs the same ring
sum at its target points only.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.signal import resample
from scipy.special import gammaln

from .grids import PolarGrid, RadialProfile, SpectralSlice, circle_rule
from .quadrature import adaptive_quad, trapezoid_weights
from .specfun import laguerre, laguerre_fn
from .spherical import build_basis


def radial_slice(grid, lam, values):
    """Slice whose values depend on |z| only; values is an array on grid.r
    or a callable of r."""
    v = np.asarray(values(grid.r) if callable(values) else values, dtype=complex)
    if v.shape != grid.r.shape:
        raise ValueError("radial values must be sampled on grid.r")
    return SpectralSlice(lam, grid, np.repeat(v[:, None], grid.omega.shape[0], axis=1))


def partial_fourier_t(values, lam, grid, t_nodes, t_weights=None):
    """f^lam(z) = int e^{i lam t} f(z, t) dt from samples on grid x t_nodes."""
    values = np.asarray(values, dtype=complex)
    t_nodes = np.asarray(t_nodes, dtype=float)
    expected = (grid.r.size, grid.omega.shape[0], t_nodes.size)
    if values.shape != expected:
        raise ValueError(f"need samples of shape {expected}, got {values.shape}")
    if t_weights is None:
        t_weights = trapezoid_weights(t_nodes)
    peak = float(np.max(np.abs(values)))
    edge = max(float(np.max(np.abs(values[..., 0]))), float(np.max(np.abs(values[..., -1]))))
    if peak > 0 and edge > 1e-10 * peak:
        warnings.warn("f has not decayed at the ends of the t grid; "
                      "the t integral is truncated", RuntimeWarning, stacklevel=2)
    phase = np.asarray(t_weights) * np.exp(1j * lam * t_nodes)
    return SpectralSlice(lam, grid, values @ phase)


@dataclass(frozen=True)
class _Raster:
    """Fine uniform resampling of a slice, for fast off-grid gathers."""
    values: np.ndarray          # (nr_fine, na_fine)
    dr: float
    r_max: float
    boundary: float             # max |f| on the outermost stored ring

    def gather(self, pts):
        """Bilinear values at complex points; zero beyond r_max.

        Returns (values, outside_mask).
        """
        rho = np.abs(pts)
        outside = rho > self.r_max
        nr, na = self.values.shape
        fi = np.clip(rho / self.dr, 0.0, nr - 1.000001)
        i0 = fi.astype(int)
        tr = fi - i0
        fa = (np.angle(pts) % (2.0 * np.pi)) * (na / (2.0 * np.pi))
        j0 = fa.astype(int) % na
        ta = fa - np.floor(fa)
        j1 = (j0 + 1) % na
        v = ((1 - tr) * ((1 - ta) * self.values[i0, j0] + ta * self.values[i0, j1])
             + tr * ((1 - ta) * self.values[i0 + 1, j0] + ta * self.values[i0 + 1, j1]))
        if np.any(outside):
            v = np.where(outside, 0.0, v)
        return v, outside


def _rasterize(sl, nr_fine=1024, na_fine=256):
    if sl.grid.n != 1:
        raise NotImplementedError("off-grid slice evaluation exists for n = 1 only")
    na = sl.grid.omega.shape[0]
    fine_a = resample(sl.values, max(na_fine, na), axis=1)
    # the polynomial extrapolation distance to r = 0 is below the first
    # Gauss node, ~1e-4 of r_max, so a linear step in r^2 is plenty
    r = sl.grid.r
    mean0 = np.mean(sl.values[0]) - (np.mean(sl.values[1]) - np.mean(sl.values[0])) \
        * r[0] ** 2 / (r[1] ** 2 - r[0] ** 2)
    r_aug = np.concatenate([[0.0], r])
    vals_aug = np.vstack([np.full(fine_a.shape[1], mean0), fine_a])
    rf = np.linspace(0.0, sl.grid.r_max, nr_fine)
    fine = CubicSpline(r_aug, vals_aug, axis=0)(rf)
    return _Raster(fine, rf[1] - rf[0], float(sl.grid.r_max),
                   float(np.max(np.abs(sl.values[-1]))))


def slice_value(sl, z, raster=None):
    """Evaluate a slice off its nodes (bilinear on the fine raster)."""
    pts = np.asarray(z, dtype=complex)
    vals, _ = (raster or _rasterize(sl)).gather(np.atleast_1d(pts))
    return vals[0] if pts.ndim == 0 else vals


def _ring_sum(raster, g, z):
    """(f *_lam g)(z) at complex targets z of any shape: a sum over the
    nodes w of g's grid, with f(z - w) gathered from the raster of f."""
    W = g.grid.points()[:, :, 0]
    mu = g.grid.measure()
    lam = g.lam
    out = np.zeros(z.shape, dtype=complex)
    lead = tuple(range(z.ndim))
    cut_mass = 0.0
    total_mass = 0.0
    # ring-by-ring accumulation: for each radius of the w variable, gather
    # f(z - w) for all (z, w-angle) pairs at once
    for j in range(g.grid.r.size):
        wj = W[j]                                      # (na,)
        gw = g.values[j] * mu[j]                       # (na,)
        diff = z[..., None] - wj
        vals, outside = raster.gather(diff)
        phase = np.exp(0.5j * lam * (z[..., None] * np.conj(wj)).imag)
        out += np.einsum("...w,w->...", vals * phase, gw)
        absg = np.abs(gw)
        cut_mass += raster.boundary * float(outside.sum(axis=lead) @ absg) / z.size
        total_mass += float(np.abs(vals).sum(axis=lead) @ absg) / z.size
    if total_mass > 0 and cut_mass > 1e-8 * total_mass:
        warnings.warn("mass beyond r_max was dropped by zero extension "
                      f"(~{cut_mass / total_mass:.1e} of the integrand)",
                      RuntimeWarning, stacklevel=3)
    return out


def twisted_convolution(f, g):
    """(f *_lam g) on the shared grid nodes; see the module docstring."""
    if f.lam != g.lam:
        raise ValueError("slices carry different central frequencies")
    if not f.grid.same_as(g.grid):
        raise ValueError("slices live on different grids")
    if f.grid.n != 1:
        raise NotImplementedError("grid twisted convolution is implemented for n = 1 only")
    nodes = f.grid.points()[:, :, 0]
    return SpectralSlice(f.lam, f.grid, _ring_sum(_rasterize(f), g, nodes))


def twisted_convolution_quad(f, g, lam, z, r_cut=12.0):
    """(f *_lam g)(z) for callables f, g of one complex variable, by nested
    adaptive quadrature over polar coordinates.  Slow; this is the oracle."""
    z = complex(z)

    def ring(rho):
        def over_angle(phi):
            w = rho * np.exp(1j * phi)
            return f(z - w) * g(w) * np.exp(0.5j * lam * (z * np.conj(w)).imag)
        return rho * adaptive_quad(over_angle, 0.0, 2.0 * np.pi, epsabs=1e-13)

    return adaptive_quad(ring, 0.0, r_cut, epsabs=1e-13)


def laguerre_projection(g, k, lam, m):
    """int_0^inf g(s) L_k^{m-1}(|lam| s^2/2) e^{-|lam| s^2/4} s^{2m-1} ds.

    This is the radial coefficient integral of the twisted-convolution
    eigenexpansion in dimension m; the Gamma-ratio prefactor is applied by
    the caller, once.
    """
    if int(m) != m or m < 1:
        raise ValueError("dimension m must be a positive integer")
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if g.weights is None:
        raise ValueError("profile carries no quadrature weights")
    s = g.r
    x = 0.5 * abs(lam) * s * s
    integrand = g.values * laguerre(k, m - 1, x) * np.exp(-0.5 * x) * s ** (2 * m - 1)
    scale = float(np.max(np.abs(integrand)))
    if scale > 0 and abs(integrand[-1]) > 1e-10 * scale:
        warnings.warn("projection integrand has not decayed at the last node",
                      RuntimeWarning, stacklevel=2)
    return complex(np.sum(g.weights * integrand))


def hecke_bochner_check(g, p, q, j, k, lam, n, z):
    """Both routes to (P g *_lam phi_{k,lam}^{n-1})(z), P the (p,q,j) solid
    harmonic and g radial.

    lhs runs the grid twisted convolution at the points z themselves, on a
    raster finer than a whole output grid could afford.  rhs is the
    factorized form: the convolution collapses to a radial Laguerre
    projection in the boosted dimension m = n+p+q, times P, times constants.
    The constants here are fixed by direct Gaussian integration (the radial
    k = 0 case pins them); the verify suite reports how they relate to other
    printed conventions.  For lam < 0 the roles of p and q swap (conjugation
    symmetry of the twist), and for k below the swapped p the product is
    annihilated.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if g.weights is None:
        raise ValueError("profile carries no quadrature weights")
    basis = build_basis(n, p, q)
    if not 1 <= j <= basis.dimension:
        raise IndexError(f"no element {j} in the ({p}, {q}) basis")
    P = basis.elements[j - 1]
    _, omega, ww = circle_rule()
    grid = PolarGrid(1, g.r, g.weights, omega, ww, float(g.r[-1]))
    pts = grid.points()
    f_slice = SpectralSlice(lam, grid, P(pts) * np.asarray(g.values)[:, None])
    phi = radial_slice(grid, lam, laguerre_fn(k, lam, n, grid.r))
    zz = np.asarray(z, dtype=complex)
    # a few targets can afford a finer raster than a whole output grid
    lhs = _ring_sum(_rasterize(f_slice, 2048, 1024), phi, np.atleast_1d(zz))
    lhs = lhs[0] if zz.ndim == 0 else lhs

    p_eff, q_eff = (p, q) if lam > 0 else (q, p)
    if k < p_eff:
        return lhs, np.zeros(zz.shape, dtype=complex) if zz.ndim else 0.0j
    m = n + p + q
    gamma_ratio = math.exp(gammaln(k - p_eff + 1) - gammaln(k + n + q_eff))
    proj = laguerre_projection(g, k - p_eff, lam, m)
    rhs = ((2.0 * np.pi) ** (-(p + q)) * abs(lam) ** (p + q) * P(zz)
           * 2.0 * np.pi ** m * gamma_ratio * proj
           * laguerre_fn(k - p_eff, lam, m, np.abs(zz)))
    return lhs, (complex(rhs) if zz.ndim == 0 else rhs)
