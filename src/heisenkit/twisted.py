"""Central-frequency slices and the twisted convolution on C^1.

(f *_lam g)(z) = int f(z-w) g(w) e^{i lam Im(z . conj(w)) / 2} dw.

The grid route sums the integral over the nodes w of the shared polar grid,
with f(z - w) read off the interpolant of the slice f: a not-a-knot cubic
spline in r (through the mirrored rings -r and r, by the parity
c_m(-r) = (-1)^m c_m(r) of angular mode m) times the trigonometric
interpolant in angle, which is exact for band-limited angular
dependence, and zero beyond r_max.  The spline runs through the angular DFT
coefficients c_m(r) of f, which is the same interpolant since the spline is
linear in its data, so f(rho e^{i phi}) = sum_m c_m(rho) e^{i m phi} over the
live modes; when every live c_m is real, as for a real radial slice, so is
the spline.  The sum uses no Laguerre function, and it convolves no angular
mode of f with one of g.  The quadrature route below it is an entirely
independent nested adaptive integral used as the oracle in tests.

The ring sum runs over rotation orbits of targets.  With na uniform angles
theta_a on the circle, a target z = e^{i theta_a} z0 and a node
w = s e^{i theta_{a+d}} give z - w = e^{i theta_a} (z0 - s e^{i theta_d}), and
the twist phase (Im(z conj(w)) = Im(z0 conj(s e^{i theta_d}))) depends on
(z0, s, d) only.  So each term c_m(|zeta|) e^{i phi}, phi = m arg zeta + twist,
is evaluated once per orbit, at zeta = z0 - s e^{i theta_d}, and the rotation
by theta_a enters as e^{i m theta_a}.  g enters by its live angular modes
k, g(s e^{i theta_{d+a}}) = (1/na) sum_k g^_k(s) e^{2 pi i k (d + a) / na}:
W[k, s, d] = g^_k(s) e^{2 pi i k d / na} contracts the terms into S[k, m],
whose back-transform over k gives the orbit's angles.  That only reorders
the direct sum over the nodes w, less g's modes below 1e-15 of its largest.
`twisted_convolution` sums the orbits of the grid radii, and
`hecke_bochner_check` orbits of length one at its own targets.

A target z0 on the real axis sees the node angles d and -d as mirror
images: zeta(-d) = conj zeta(d), so c_m(|zeta|) agrees at the two and the
phase at -d is the conjugate of its value at d.  Its terms are evaluated on
the columns d = 0 .. na/2 alone, and each mirrored column's weight W_mirror
is folded onto its partner: c e^{i phi} W + c e^{-i phi} W_mirror is
c cos(phi) W+ + c sin(phi) W-, with W+ = W + W_mirror, W- = i (W - W_mirror).
Its |g| is folded the same way, so the masses of the zero-extension warning
stay exact.  Every target of `twisted_convolution` and `convolution_rings`
lies on the axis.  A target off it, such as a point of `hecke_bochner_check`,
keeps the full circle with W and i W: its nodes are not symmetric about its
ray, and rotating the target onto the axis would rotate the grid's angle
rule with it, which changes the sum itself and not only its round-off.

Neither route is an engine.  Evolution by the heat kernel, the only twisted
convolution the package needs at scale, runs through the Laguerre multiplier
in `propagator.schrodinger_evolve`.  The grid route stays as the oracle that
checks it: the twisted-semigroup check (q_a *_lam q_b = q_{a+b}) runs on the
grid because that is the one test of the twist phase that shares no code
with the Laguerre expansion.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._checks import (finite, finite_array, integer, integer_array, nonzero, one_dimensional,
                      positive, quadrature_weights, real)
from .grids import PolarGrid, SpectralSlice, circle_rule, live_modes, radial_slice
from .quadrature import adaptive_quad, warn_truncated
from .specfun import laguerre_fn
from .spherical import build_basis


@dataclass(frozen=True)
class _Interpolant:
    """The interpolant of a slice: the sum over the live angular frequencies
    m of c_m(rho) e^{i m phi} for rho <= r_max, and zero beyond."""
    modes: np.ndarray           # (M,) signed angular frequencies m
    spline: object              # CubicSpline in r of the (M,) coefficients c_m(r)
    r_max: float
    boundary: float             # max |f| on the outermost stored ring

    def coefficients(self, rho):
        """The (..., M) coefficients c_m(rho), zero beyond r_max."""
        # capping rho keeps the spline's argument finite at infinite points
        c = self.spline(np.minimum(rho, self.r_max))
        return np.where((rho > self.r_max)[..., None], 0.0, c)


def _interpolant(sl, name="f"):
    """The interpolant of the n = 1 slice passed as the argument name (see the
    module docstring)."""
    # scipy.interpolate loads on first use (see quadrature.adaptive_quad)
    from scipy.interpolate import CubicSpline

    values = finite_array(f"values of slice {name}", sl.values)
    na = values.shape[1]
    spec = np.fft.fft(values, axis=1) / na
    modes = np.fft.fftfreq(na, 1.0 / na)
    if na % 2 == 0:
        # an even na's unpaired Nyquist bin stands for cos(m theta), as in
        # zero-padded resampling: half of it at each of m = -na/2, na/2
        spec[:, na // 2] /= 2.0
        spec = np.hstack([spec, spec[:, na // 2:na // 2 + 1]])
        modes = np.append(modes, na // 2)
    # through the mirrored nodes -r_j, r_j, on which c_m(-r) = (-1)^m c_m(r)
    live = live_modes(spec)
    table = np.vstack([(spec[:, live] * (-1.0) ** modes[live])[::-1], spec[:, live]])
    spline = CubicSpline(np.concatenate([-sl.grid.r[::-1], sl.grid.r]),
                         table if np.any(table.imag) else table.real, axis=0)
    return _Interpolant(modes[live], spline, float(sl.grid.r_max),
                        float(np.max(np.abs(values[-1]))))


def slice_value(sl, z):
    """Evaluate a slice off its nodes, on the interpolant of the module
    docstring.  The slice is zero beyond its grid's r_max, at infinite
    points too; a point with a NaN part raises ValueError."""
    pts = np.asarray(z, dtype=complex)
    nan = np.isnan(pts)
    if np.any(nan):
        raise ValueError(f"points z must have no NaN part, got the non-finite point {pts[nan][0]}")
    one_dimensional(sl.grid.n, "off-grid slice evaluation")
    f = _interpolant(sl, "sl")
    terms = f.coefficients(np.abs(pts)) * np.exp(1j * np.angle(pts)[..., None] * f.modes)
    return terms.sum(axis=-1)


def _ring_sum(f, g, r, theta0, orbit):
    """(f *_lam g) on rotation orbits: out[t, a] is the value at
    r[t] e^{i(theta0[t] + 2 pi a / orbit)} for a < orbit, summed over the
    nodes w of g's grid with f(z - w) read from the interpolant f.

    `orbit` must divide the angle count na of g's grid.  Targets are visited
    one at a time: on the real axis over na // 2 + 1 node angles with W+ and
    W-, off it over all na with W and i W (see the module docstring).
    """
    na = g.grid.omega.shape[0]
    w = np.outer(g.grid.r, g.grid.omega[:, 0])                       # (J, D)
    gw = g.values * g.grid.measure()
    g_hat = np.fft.fft(gw, axis=1)
    k = np.flatnonzero(live_modes(g_hat))
    # W as (k, j, d), each phase reduced to one turn before it is scaled
    twiddle = np.exp(2j * np.pi / na * (k[:, None] * np.arange(na) % na))     # (K, D)
    weights = g_hat.T[k, :, None] * twiddle[:, None]
    # the |g| that node angle d meets over the orbit: at d + a na / orbit, a < orbit
    absg = np.tile(np.abs(gw).reshape(-1, orbit, na // orbit).sum(axis=1), orbit)
    # on the real axis column d > na // 2 mirrors na - d, which takes its |g| and W_mirror
    half = na // 2 + 1
    mirror = na - np.arange(half, na)
    folded, w_mirror = absg[:, :half].copy(), np.zeros_like(weights[..., :half])
    folded[:, mirror] += absg[:, half:]
    w_mirror[..., mirror] = weights[..., half:]
    on_axis = (w[:, :half], folded, (weights[..., :half] + w_mirror).reshape(k.size, -1),
               1j * (weights[..., :half] - w_mirror).reshape(k.size, -1))
    off_axis = (w, absg, weights.reshape(k.size, -1), 1j * weights.reshape(k.size, -1))
    twist_rate = -0.5 * g.lam * w[:, :half].imag       # the twist is z twist_rate on the axis
    # e^{2 pi i (k + m) a / orbit} / na: the back-transform over k and the rotation
    turns = np.arange(orbit)[:, None, None] * np.add.outer(k, f.modes) % orbit
    back = np.exp(2j * np.pi / orbit * turns).reshape(orbit, -1) / na          # (a, K M)
    z0 = np.asarray(r, dtype=float) * np.exp(1j * np.asarray(theta0, dtype=float))
    out = np.empty((z0.size, orbit), dtype=complex)
    cut_mass = total_mass = 0.0
    for t, z in enumerate(z0):
        wz, mass, w_plus, w_minus = on_axis if z.imag == 0.0 else off_axis
        twist = z.real * twist_rate if z.imag == 0.0 else 0.5 * g.lam * (z * np.conj(wz)).imag
        zeta = z - wz
        rho = np.abs(zeta)
        c = f.coefficients(rho).reshape(-1, f.modes.size)            # (J D, M)
        phi = twist.reshape(-1, 1)
        if f.modes.size > 1 or f.modes[0]:      # a lone m = 0 needs no arg zeta
            phi = np.angle(zeta).reshape(-1, 1) * f.modes + phi
        out[t] = back @ (w_plus @ (c * np.cos(phi)) + w_minus @ (c * np.sin(phi))).ravel()
        # |phase| = 1, so the masses need no phase
        total_mass += float(mass.ravel() @ np.abs(c).sum(axis=1))
        cut_mass += f.boundary * float(mass[rho > f.r_max].sum())
    warn_truncated("mass beyond r_max was dropped by zero extension", cut_mass, total_mass, 1e-8)
    return out


def twisted_convolution(f, g):
    """(f *_lam g) on the shared grid nodes; see the module docstring."""
    return SpectralSlice(f.lam, f.grid, convolution_rings(f, g, f.grid.r))


def convolution_rings(f, g, r):
    """(f *_lam g) at the grid's angles on the rings of radii r, as an
    (r, angle) array: the rows of `twisted_convolution` for those radii, and
    no rows for an empty r."""
    if f.lam != g.lam:
        raise ValueError("slices carry different central frequencies")
    if not f.grid.same_as(g.grid):
        raise ValueError("slices live on different grids")
    one_dimensional(f.grid.n, "grid twisted convolution")
    r = finite_array("ring radii", r)
    interpolant = _interpolant(f, "f")
    finite_array("values of slice g", g.values)
    return _ring_sum(interpolant, g, r, np.zeros(r.size), f.grid.omega.shape[0])


def twisted_convolution_quad(f, g, lam, z, r_cut=12.0):
    """(f *_lam g)(z) for callables f, g of one complex variable, by nested
    adaptive quadrature over polar coordinates.  Slow; this is the oracle."""
    finite("target z", z)
    real("lam", lam)
    positive("r_cut", r_cut)
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
    weights = quadrature_weights(g)
    integer("dimension m", m)
    integrand = (finite_array("values of g", g.values) * laguerre_fn(k, lam, m, g.r)
                 * g.r ** (2 * m - 1))
    warn_truncated("projection integrand has not decayed at the last node",
                   float(abs(integrand[-1])), float(np.max(np.abs(integrand))), 1e-10)
    return complex(np.sum(weights * integrand))


def hecke_bochner_check(g, p, q, j, ks, lam, n, z):
    """Both routes to (P g *_lam phi_{k,lam}^{n-1})(z) for each degree k in
    ks, P the (p,q,j) solid harmonic and g radial.

    lhs runs the grid twisted convolution at the points z themselves.  rhs
    is the factorized form: the convolution collapses to a radial Laguerre
    projection in the boosted dimension m = n+p+q, times P, times constants.
    The constants here are fixed by direct Gaussian integration (the radial
    k = 0 case pins them); the verify suite reports how they relate to other
    printed conventions.  For lam < 0 the roles of p and q swap (conjugation
    symmetry of the twist), and for k below the swapped p the product is
    annihilated.

    The interpolant of P g does not depend on k, so it is built once for all
    of ks; the result is a list of (lhs, rhs) pairs, one per degree, empty
    arrays for an empty z.
    """
    one_dimensional(n, "the grid Hecke-Bochner check")
    nonzero("lam", lam)
    weights = quadrature_weights(g)
    zz = finite_array("targets z", np.asarray(z, dtype=complex))
    targets = np.atleast_1d(zz)
    P = build_basis(n, p, q).element(j)
    values = finite_array("values of g", g.values)
    ks = integer_array("degrees ks", ks, 0).ravel()
    _, omega, ww = circle_rule()
    grid = PolarGrid(1, g.r, weights, omega, ww, float(g.r[-1]))
    pts = grid.points()
    f = _interpolant(SpectralSlice(lam, grid, P(pts) * values[:, None]), "g")
    p_eff, q_eff = (p, q) if lam > 0 else (q, p)
    m = n + p + q

    pairs = []
    for k in ks:
        phi = radial_slice(grid, lam, laguerre_fn(k, lam, n, grid.r))
        lhs = _ring_sum(f, phi, np.abs(targets), np.angle(targets), 1)[:, 0]
        lhs = lhs[0] if zz.ndim == 0 else lhs.reshape(zz.shape)
        if k < p_eff:
            pairs.append((lhs, np.zeros(zz.shape, dtype=complex) if zz.ndim else 0.0j))
            continue
        gamma_ratio = math.exp(gammaln(k - p_eff + 1) - gammaln(k + n + q_eff))
        proj = laguerre_projection(g, k - p_eff, lam, m)
        rhs = ((2.0 * np.pi) ** (-(p + q)) * abs(lam) ** (p + q) * P(zz)
               * 2.0 * np.pi ** m * gamma_ratio * proj
               * laguerre_fn(k - p_eff, lam, m, np.abs(zz)))
        pairs.append((lhs, complex(rhs) if zz.ndim == 0 else rhs))
    return pairs
