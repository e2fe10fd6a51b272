"""Central-frequency slices and the twisted convolution on C^1.

(f *_lam g)(z) = int f(z-w) g(w) e^{i lam Im(z . conj(w)) / 2} dw.

The grid route evaluates the integral on the shared polar grid: the slice
being translated is first resampled onto a fine uniform (rho, theta) raster
(cubic splines radially, trigonometric interpolation in angle, which is exact
for band-limited angular dependence), and f(z-w) is then gathered bilinearly
from the raster.  The quadrature route below it is an entirely independent
nested adaptive integral used as the oracle in tests.

The ring sum runs over rotation orbits of targets.  With na uniform angles
theta_a on the circle, a target z = e^{i theta_a} z0 and a node
w = s e^{i theta_{a+d}} give z - w = e^{i theta_a} (z0 - s e^{i theta_d}).
So |z - w|, the bilinear weights, the zero-extension mask and the twist
phase (Im(z conj(w)) = Im(z0 conj(s e^{i theta_d}))) depend on (z0, s, d)
only and are computed once per orbit, not once per target.  The raster has
step * na angles, so rotating by theta_a moves the raster lookup by exactly
step * a columns: each bilinear corner of the whole orbit is one contiguous
block of the raster, stored plane by plane (see `_Raster`), and g is read on
its angles rolled by d.  `twisted_convolution` sums the orbits of the grid
radii; `hecke_bochner_check` sums orbits of length one at its own targets.

The raster's dtype follows the slice: a slice whose values have no
imaginary part (as `radial_slice` stores them) gets a real raster, which
halves the bytes each gather moves.  The bilinear weights are real and the
twist phase multiplies f(z - w) after the four corners are combined, so the
one ring sum serves real and complex rasters alike.

Neither route is an engine.  Evolution by the heat kernel, the only twisted
convolution the package needs at scale, runs through the Laguerre multiplier
in `propagator.schrodinger_evolve`.  The grid route stays as the oracle that
checks it: the twisted-semigroup check (q_a *_lam q_b = q_{a+b}) runs on the
grid because that is the one test of the twist phase that shares no code
with the Laguerre expansion.  The orbit reduction keeps it so: it only
regroups the same raster, bilinear rule and quadrature weights, and uses no
Laguerre function or angular-mode expansion of f or g.
"""

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from .grids import PolarGrid, SpectralSlice, circle_rule, radial_slice
from .quadrature import adaptive_quad, warn_truncated
from .specfun import laguerre_fn
from .spherical import build_basis


@dataclass(frozen=True)
class _Raster:
    """Fine uniform resampling of a slice, for fast off-grid gathers.

    The raster has step * na angular columns, na the angle count of the
    slice's grid.  Column c is stored at planes[:, c % step, c // step], and
    each plane holds its na columns twice over, so that the columns
    c, c + step, ..., c + step * (na - 1) of a rotation orbit are one
    contiguous run.  The planes are float64 for a slice whose values have
    no imaginary part and complex128 otherwise.
    """
    planes: np.ndarray          # (nr_fine, step, 2 * na), real or complex
    dr: float
    r_max: float
    boundary: float             # max |f| on the outermost stored ring

    def cell(self, pts):
        """Bilinear cells of complex points: the row i0 and column j0 (taken
        modulo the raster's step * na angles) of each lower corner, the
        fractional offsets tr and ta within the cell, and the mask of
        points beyond r_max."""
        rho = np.abs(pts)
        nr, step, na2 = self.planes.shape
        naf = step * na2 // 2
        # points beyond r_max are masked; capping them first keeps rho / dr finite
        fi = np.minimum(np.minimum(rho, self.r_max) / self.dr, nr - 1.000001)
        i0 = fi.astype(int)
        fa = (np.angle(pts) % (2.0 * np.pi)) * (naf / (2.0 * np.pi))
        j0 = fa.astype(int) % naf
        return i0, fi - i0, j0, fa - np.floor(fa), rho > self.r_max

    def gather(self, pts):
        """Bilinear values at complex points; zero beyond r_max.

        Returns (values, outside_mask).
        """
        i0, tr, j0, ta, outside = self.cell(pts)
        _, step, na2 = self.planes.shape
        j1 = (j0 + 1) % (step * na2 // 2)

        def at(i, j):
            return self.planes[i, j % step, j // step]

        v = ((1 - tr) * ((1 - ta) * at(i0, j0) + ta * at(i0, j1))
             + tr * ((1 - ta) * at(i0 + 1, j0) + ta * at(i0 + 1, j1)))
        if np.any(outside):
            v = np.where(outside, 0.0, v)
        return v, outside


def _rasterize(sl, nr_fine=1024, na_fine=256):
    """Raster of nr_fine radii by the smallest multiple of the grid's angle
    count that is at least na_fine.  It is real when the slice's values
    have no imaginary part, complex otherwise."""
    # scipy.interpolate loads on first use (see quadrature.adaptive_quad)
    from scipy.interpolate import CubicSpline

    if sl.grid.n != 1:
        raise NotImplementedError("off-grid slice evaluation exists for n = 1 only")
    values = np.asarray(sl.values, dtype=complex)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        node = tuple(bad[0].tolist())
        raise ValueError(f"slice value {values[node]} at grid node {node} is not finite")
    real = not np.any(values.imag)
    if real:
        values = values.real
    na = sl.grid.omega.shape[0]
    step = max(1, math.ceil(na_fine / na))
    # the polynomial extrapolation distance to r = 0 is below the first
    # Gauss node, ~1e-4 of r_max, so a linear step in r^2 is plenty
    r = sl.grid.r
    mean0 = np.mean(values[0]) - (np.mean(values[1]) - np.mean(values[0])) \
        * r[0] ** 2 / (r[1] ** 2 - r[0] ** 2)
    r_aug = np.concatenate([[0.0], r])
    vals_aug = np.vstack([np.full(na, mean0), values])
    rf = np.linspace(0.0, sl.grid.r_max, nr_fine)
    # The spline in r and the trigonometric interpolation in angle act on
    # different axes, so the spline runs on the grid's own na angles.  Plane
    # p then holds the angles 2 pi k / na + delta, delta = 2 pi p / (step na):
    # an na-point inverse DFT of the spectrum times e^{i m delta}, m the
    # signed frequency.  An even na's unpaired Nyquist bin stands for
    # cos(m theta), as in the zero-padded resampling, so it takes cos(m delta).
    # Real samples keep the m >= 0 half of their Hermitian spectrum, and the
    # inverse real DFT returns the interpolant, which is real too.
    fft, freq = (np.fft.rfft, np.fft.rfftfreq) if real else (np.fft.fft, np.fft.fftfreq)
    spec = fft(CubicSpline(r_aug, vals_aug, axis=0)(rf), axis=1) / na
    m = freq(na, 1.0 / na)
    delta = 2.0 * np.pi * np.arange(step) / (step * na)
    shift = np.exp(1j * np.outer(delta, m))
    if na % 2 == 0:
        shift[:, na // 2] = np.cos(delta * (na // 2))
    planes = np.empty((nr_fine, step, 2 * na), dtype=values.dtype)
    head = planes[:, :, :na]
    if real:
        np.fft.irfft(spec[:, None, :] * shift, na, axis=2, norm="forward", out=head)
    else:
        np.multiply(spec[:, None, :], shift, out=head)
        np.fft.ifft(head, axis=2, norm="forward", out=head)
    planes[:, :, na:] = head
    return _Raster(planes, rf[1] - rf[0], float(sl.grid.r_max),
                   float(np.max(np.abs(values[-1]))))


def slice_value(sl, z, raster=None):
    """Evaluate a slice off its nodes (bilinear on the fine raster).  The
    slice is zero beyond its grid's r_max, at infinite points too; a point
    with a NaN part raises ValueError."""
    pts = np.asarray(z, dtype=complex)
    nan = np.isnan(pts)
    if np.any(nan):
        raise ValueError(f"slice_value got the non-finite point {pts[nan][0]}")
    vals, _ = (raster or _rasterize(sl)).gather(np.atleast_1d(pts))
    vals = vals.astype(complex, copy=False)
    return vals[0] if pts.ndim == 0 else vals


# elements of one node block of the ring sum: the blocks partition g's nodes
# and are added in order, so this size fixes the order of every sum
_BLOCK = 1 << 15
# elements of one gather tile within a block (its four bilinear corners take
# 1 MB of a real raster, 2 MB of a complex one).  Tiles split targets only,
# so the size changes no sum.  Each numpy call of a tile can hand the GIL to
# the other block thread, at the price of a context switch that depends on
# how fast the waiting thread is woken: on 2 cores the semigroup check (54
# rings, real raster) makes ~2200-3000 switches in 0.34-0.46 s, where tiles
# of 1 << 13 make ~8500-10000 in 0.47-0.57 s
_TILE = 1 << 15


def _cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity outside Linux
        return os.cpu_count() or 1


def _in_order(fn, items):
    """fn(item) for each item, yielded in the items' order.  The calls run on
    one thread per CPU, at most one per item, and inline when that makes
    one thread.

    The calling thread is one of them: while the next item in order is not
    done, it runs the first item nobody has taken.  What a pool thread
    allocates stays in its own malloc arena after the call, so each pool
    thread adds its working set (~3 MB at the semigroup check) to the
    peak RSS."""
    workers = min(_cpu_count(), len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    claim = itertools.count()           # next() on it is atomic under the GIL
    done = [threading.Event() for _ in items]
    results = [None] * len(items)
    stop = threading.Event()

    def run_next():
        """Run the first item nobody has taken; False when none is left."""
        i = next(claim)
        if i >= len(items) or stop.is_set():
            return False
        try:
            results[i] = (fn(items[i]), None)
        except BaseException as exc:    # re-raised in the calling thread
            results[i] = (None, exc)
        done[i].set()
        return True

    def drain():
        while run_next():
            pass

    with ThreadPoolExecutor(workers - 1) as pool:
        for _ in range(workers - 1):
            pool.submit(drain)
        try:
            for i in range(len(items)):
                while not done[i].is_set() and run_next():
                    pass
                done[i].wait()
                value, exc = results[i]
                results[i] = None
                if exc is not None:
                    raise exc
                yield value
        finally:
            stop.set()


def _ring_sum(raster, g, r, theta0, orbit):
    """(f *_lam g) on rotation orbits: out[t, a] is the value at
    r[t] e^{i(theta0[t] + 2 pi a / orbit)} for a < orbit, summed over the
    nodes w of g's grid with f(z - w) gathered from the raster of f.

    g must live on the angles of the grid the raster was built from, and
    `orbit` must divide their count.  See the module docstring for the orbit
    reduction.  The node blocks run on every CPU (numpy releases the GIL in
    their gathers and products), and their partial sums are added in block
    order, so the result does not depend on the number of CPUs.
    """
    _, step, na2 = raster.planes.shape
    na = na2 // 2
    hop = na // orbit
    # window[i, p, k, a] = raster column step * (k + hop * a) + p of row i
    window = sliding_window_view(raster.planes, hop * (orbit - 1) + 1, axis=2)[..., ::hop]
    s = g.grid.r
    e = g.grid.omega[:, 0]
    gw = g.values * g.grid.measure()
    roll = (np.arange(na)[:, None] + hop * np.arange(orbit)) % na   # (d, a) -> d + hop a
    z0 = np.asarray(r, dtype=float) * np.exp(1j * np.asarray(theta0, dtype=float))
    lam = g.lam
    jb = max(1, _BLOCK // (z0.size * na * orbit))
    tb = max(1, _TILE // (min(jb, s.size) * na * orbit))

    def block_sum(lo):
        """The block's (T, orbit) sum, its mass per tile and its cut mass."""
        # geometry of each orbit's first target against w = s_j e^{i theta_d}
        w = s[lo:lo + jb, None] * e                                 # (J, D)
        i0, tr, j0, ta, outside = raster.cell(z0[:, None, None] - w)  # (T, J, D)
        phase = np.exp(0.5j * lam * (z0[:, None, None] * np.conj(w)).imag)
        # the bilinear weights, zero beyond r_max; real, so that the corner
        # combine of a real raster stays real
        coef = np.stack([(1 - tr) * (1 - ta), (1 - tr) * ta, tr * (1 - ta), tr * ta],
                        axis=-1)
        coef[outside] = 0.0
        coef = coef[..., None, :]
        rows = np.stack([i0, i0, i0 + 1, i0 + 1], axis=-1)
        cols = np.stack([j0, j0 + 1, j0, j0 + 1], axis=-1)
        plane, k = cols % step, cols // step
        g_orbit = gw[lo:lo + jb, roll]                              # (J, D, orbit)
        absg_orbit = np.abs(g_orbit)
        part = np.empty((z0.size, orbit), dtype=complex)
        masses = []
        for t in range(0, z0.size, tb):
            u = slice(t, t + tb)
            # f(z - w) on the whole orbit: the four corners move together.
            # Their (T, J, D, 4, orbit) gather is freed by the product, not
            # held until the next tile's gather replaces it.  |phase| = 1,
            # so the mass needs no phase
            vals = (coef[u] @ window[rows[u], plane[u], k[u]])[..., 0, :]   # (T, J, D, orbit)
            masses.append(float(np.einsum("tjda,jda->", np.abs(vals), absg_orbit)))
            part[u] = np.einsum("tjda,tjd,jda->ta", vals, phase[u], g_orbit)
        cut = raster.boundary * float(np.sum(outside.sum(axis=0) * absg_orbit.sum(axis=2)))
        return part, masses, cut

    out = np.zeros((z0.size, orbit), dtype=complex)
    cut_mass = 0.0
    total_mass = 0.0
    for part, masses, cut in _in_order(block_sum, range(0, s.size, jb)):
        out += part
        for mass in masses:
            total_mass += mass
        cut_mass += cut
    warn_truncated("mass beyond r_max was dropped by zero extension",
                   cut_mass / out.size, total_mass / out.size, 1e-8, stacklevel=3)
    return out


def twisted_convolution(f, g):
    """(f *_lam g) on the shared grid nodes; see the module docstring."""
    return SpectralSlice(f.lam, f.grid, _ring_sum(*_ring_args(f, g, f.grid.r)))


def convolution_rings(f, g, r):
    """(f *_lam g) at the grid's angles on the rings of radii r, as an
    (r, angle) array: the rows of `twisted_convolution` for those radii."""
    return _ring_sum(*_ring_args(f, g, r))


def _ring_args(f, g, r):
    """The `_ring_sum` arguments of (f *_lam g) on the rings of radii r.  The
    convolutions call `_ring_sum` themselves, so that its zero-extension
    warning names their caller."""
    if f.lam != g.lam:
        raise ValueError("slices carry different central frequencies")
    if not f.grid.same_as(g.grid):
        raise ValueError("slices live on different grids")
    if f.grid.n != 1:
        raise NotImplementedError("grid twisted convolution is implemented for n = 1 only")
    r = np.asarray(r, dtype=float)
    return _rasterize(f), g, r, np.zeros(r.size), f.grid.omega.shape[0]


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
    return _projection(g, k, lam, m)


def _projection(g, k, lam, m):
    """The body of `laguerre_projection`.  Public functions call it
    themselves, so that its truncation warning names their caller."""
    if g.weights is None:
        raise ValueError("profile carries no quadrature weights")
    integrand = g.values * laguerre_fn(k, lam, m, g.r) * g.r ** (2 * m - 1)
    warn_truncated("projection integrand has not decayed at the last node",
                   float(abs(integrand[-1])), float(np.max(np.abs(integrand))), 1e-10,
                   stacklevel=3)
    return complex(np.sum(g.weights * integrand))


def hecke_bochner_check(g, p, q, j, ks, lam, n, z):
    """Both routes to (P g *_lam phi_{k,lam}^{n-1})(z) for each degree k in
    ks, P the (p,q,j) solid harmonic and g radial.

    lhs runs the grid twisted convolution at the points z themselves, on a
    raster finer than a whole output grid could afford.  rhs is the
    factorized form: the convolution collapses to a radial Laguerre
    projection in the boosted dimension m = n+p+q, times P, times constants.
    The constants here are fixed by direct Gaussian integration (the radial
    k = 0 case pins them); the verify suite reports how they relate to other
    printed conventions.  For lam < 0 the roles of p and q swap (conjugation
    symmetry of the twist), and for k below the swapped p the product is
    annihilated.

    The raster of P g does not depend on k, so it is built once for all of
    ks; the result is a list of (lhs, rhs) pairs, one per degree.
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
    zz = np.asarray(z, dtype=complex)
    # a few targets can afford a finer raster than a whole output grid
    targets = np.atleast_1d(zz)
    raster = _rasterize(f_slice, 2048, 1024)
    p_eff, q_eff = (p, q) if lam > 0 else (q, p)
    m = n + p + q

    pairs = []
    # the loop stays in this frame, so that the warnings of _ring_sum and
    # _projection name the caller
    for k in ks:
        phi = radial_slice(grid, lam, laguerre_fn(k, lam, n, grid.r))
        lhs = _ring_sum(raster, phi, np.abs(targets), np.angle(targets), 1)[:, 0]
        lhs = lhs[0] if zz.ndim == 0 else lhs.reshape(zz.shape)
        if k < p_eff:
            pairs.append((lhs, np.zeros(zz.shape, dtype=complex) if zz.ndim else 0.0j))
            continue
        gamma_ratio = math.exp(gammaln(k - p_eff + 1) - gammaln(k + n + q_eff))
        proj = _projection(g, k - p_eff, lam, m)
        rhs = ((2.0 * np.pi) ** (-(p + q)) * abs(lam) ** (p + q) * P(zz)
               * 2.0 * np.pi ** m * gamma_ratio * proj
               * laguerre_fn(k - p_eff, lam, m, np.abs(zz)))
        pairs.append((lhs, complex(rhs) if zz.ndim == 0 else rhs))
    return pairs
