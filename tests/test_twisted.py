"""Twisted convolution engine vs closed forms and the adaptive-quad oracle.

The grid tolerances here are about ten times the errors measured on a
96 x 48 grid (~1e-6 against the oracle), which come from the radial spline
of the slice being translated and the grid's quadrature.
"""

import math
import warnings

import numpy as np
import pytest

from scipy.signal import resample

from heisenkit import twisted
from heisenkit.grids import (RadialProfile, SpectralSlice, live_modes, partial_fourier_t,
                             polar_grid, radial_rule, radial_slice)
from heisenkit.specfun import laguerre_fn
from heisenkit.twisted import (
    _Interpolant,
    _interpolant,
    _ring_sum,
    convolution_rings,
    hecke_bochner_check,
    laguerre_projection,
    slice_value,
    twisted_convolution,
    twisted_convolution_quad,
)


@pytest.fixture(scope="module")
def grid():
    return polar_grid(1, nr=96, r_max=8.0, nsphere=48)


def test_radial_gaussian_closed_form_and_commutativity(grid):
    # e^{-u|z|^2} *_lam e^{-v|z|^2}
    #   = pi/(u+v) exp(-[(uv + lam^2/16)/(u+v)] |z|^2)
    # (checked against the nested-quad oracle to 2e-16 before freezing)
    u, v, lam = 1.0, 0.5, 1.0
    f = radial_slice(grid, lam, np.exp(-u * grid.r ** 2))
    g = radial_slice(grid, lam, np.exp(-v * grid.r ** 2))
    fg = twisted_convolution(f, g)
    comb = (u * v + lam * lam / 16.0) / (u + v)
    want = np.pi / (u + v) * np.exp(-comb * grid.r ** 2)
    mask = grid.r <= 4.0
    err = np.max(np.abs(fg.values[mask] - want[mask, None])) / np.max(want)
    assert err < 7e-6                   # measured 7.1e-7
    # radial slices commute
    gf = twisted_convolution(g, f)
    assert np.max(np.abs(fg.values - gf.values)) < 6e-6 * np.max(np.abs(fg.values))


def test_negating_lam_conjugates_the_convolution(grid):
    u, v = 1.0, 0.5
    plus = twisted_convolution(radial_slice(grid, 1.0, np.exp(-u * grid.r ** 2)),
                               radial_slice(grid, 1.0, np.exp(-v * grid.r ** 2)))
    minus = twisted_convolution(radial_slice(grid, -1.0, np.exp(-u * grid.r ** 2)),
                                radial_slice(grid, -1.0, np.exp(-v * grid.r ** 2)))
    assert np.max(np.abs(minus.values - np.conj(plus.values))) < 1e-14


def test_nonradial_engine_against_quad_oracle(grid):
    lam, v = 1.0, 0.5
    Z = grid.points()[:, :, 0]
    f = SpectralSlice(lam, grid, Z * np.exp(-np.abs(Z) ** 2))
    g = radial_slice(grid, lam, np.exp(-v * grid.r ** 2))
    conv = twisted_convolution(f, g)
    z0 = 0.8 + 0.3j
    got = slice_value(conv, z0)
    want = twisted_convolution_quad(lambda w: w * np.exp(-np.abs(w) ** 2),
                                    lambda w: np.exp(-v * np.abs(w) ** 2),
                                    lam, z0)
    assert abs(got - want) < 7e-6 * abs(want)     # measured 6.6e-7


def _angular_pair(grid, lam):
    def f(w):
        return np.exp(-np.abs(w) ** 2)

    def g(w):
        return (1.0 + 0.5 * np.conj(w) ** 2) * w * np.exp(-0.5 * np.abs(w) ** 2)

    Z = grid.points()[:, :, 0]
    return f, g, SpectralSlice(lam, grid, f(Z)), SpectralSlice(lam, grid, g(Z))


def test_angle_dependent_g_against_quad_oracle(grid):
    # g carries angular modes 1 and -1, so every output node reads g on the
    # w-angles shifted by its own angle: the (a + d) mod na roll of the orbit
    lam = 1.0
    f, g, fs, gs = _angular_pair(grid, lam)
    conv = twisted_convolution(fs, gs)
    interp = _interpolant(fs)
    for z0 in (0.8 + 0.3j, -1.1 + 0.6j):
        want = twisted_convolution_quad(f, g, lam, z0)
        # through the output grid (on its interpolant), measured 9.2e-7
        assert abs(slice_value(conv, z0) - want) < 1e-5 * abs(want)
        # at the point itself, measured 1.06e-6
        got = _ring_sum(interp, gs, [abs(z0)], [np.angle(z0)], 1)[0, 0]
        assert abs(got - want) < 1e-5 * abs(want)


def _noisy_pair(na, lam):
    # random angular dependence, so that an even na's Nyquist bin is live,
    # and an f that is still ~5e-3 at r_max, so that cutting it at r_max shows
    grid = polar_grid(1, nr=20, r_max=6.0, nsphere=na)
    rng = np.random.default_rng(na)
    shape = (grid.r.size, na)

    def noisy(rate):
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return np.exp(-rate * grid.r ** 2)[:, None] * (1.0 + 0.3 * noise)

    return grid, SpectralSlice(lam, grid, noisy(0.15)), SpectralSlice(lam, grid, noisy(0.5))


@pytest.mark.parametrize("lam", [0.7, -0.7])
@pytest.mark.parametrize("na", [64, 48, 45])
def test_ring_sum_on_the_real_axis_is_the_direct_double_sum(na, lam, monkeypatch):
    # targets on the real axis evaluate half of the node angles and mirror
    # the rest; the direct sum over every node w must agree, and so must the
    # masses of the zero-extension warning (the last ring, past r_max / 2,
    # reaches points beyond r_max)
    grid, fs, gs = _noisy_pair(na, lam)
    masses = []
    monkeypatch.setattr(twisted, "warn_truncated",
                        lambda what, cut, total, *a, **k: masses.append((cut, total)))
    r = np.array([0.0, 0.8, 2.3, 4.2])
    interp = _interpolant(fs)
    got = _ring_sum(interp, gs, r, np.zeros(r.size), 1)[:, 0]

    w = grid.points()[:, :, 0]
    gm = gs.values * grid.measure()
    want = np.array([np.sum(slice_value(fs, z - w) * gm
                            * np.exp(0.5j * lam * (z * np.conj(w)).imag)) for z in r])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13      # measured 1.2e-15
    rho = np.abs(r[:, None, None] - w)
    assert np.any(rho[-1] > grid.r_max)
    cut = interp.boundary * sum(np.abs(gm)[p > grid.r_max].sum() for p in rho)
    total = sum(np.sum(np.abs(interp.coefficients(p)).sum(axis=-1) * np.abs(gm)) for p in rho)
    [(got_cut, got_total)] = masses
    assert got_cut == pytest.approx(cut, rel=1e-13)
    assert got_total == pytest.approx(total, rel=1e-13)


@pytest.mark.parametrize("orbit", ["one", "all"])
@pytest.mark.parametrize("theta0", [0.0, 0.4])
@pytest.mark.parametrize("pair", ["radial-g", "angular-g", "radial-real"])
def test_ring_sum_over_few_live_modes_is_the_direct_double_sum(pair, theta0, orbit,
                                                                 monkeypatch):
    # g with one live angular mode (radial) or two (modes +-1) meets the
    # terms through those modes alone; on the real axis (theta0 = 0) and off
    # it, for orbits of one target and of every grid angle, the sum and the
    # masses of the zero-extension warning are those of the direct sum over
    # every node w and every target of the orbit
    na = 48
    grid, noisy_f, _ = _noisy_pair(na, 0.7)
    z = grid.points()[:, :, 0]
    radial_f = radial_slice(grid, 0.7, np.exp(-0.15 * grid.r ** 2))
    fs, gs = {"radial-g": (noisy_f, radial_slice(grid, 0.7, np.exp(-0.5 * grid.r ** 2))),
              "angular-g": (radial_f, _angular_pair(grid, 0.7)[3]),
              "radial-real": (radial_f, radial_slice(grid, 0.7, np.exp(-0.5 * grid.r ** 2)))}[pair]
    g_hat = np.fft.fft(gs.values * grid.measure(), axis=1)
    assert np.count_nonzero(live_modes(g_hat)) == (2 if pair == "angular-g" else 1)
    masses = []
    monkeypatch.setattr(twisted, "warn_truncated",
                        lambda what, cut, total, *a, **k: masses.append((cut, total)))
    r = np.array([0.0, 0.8, 4.2])
    size = {"one": 1, "all": na}[orbit]
    interp = _interpolant(fs)
    got = _ring_sum(interp, gs, r, np.full(r.size, theta0), size)

    targets = r[:, None] * np.exp(1j * (theta0 + 2.0 * np.pi * np.arange(size) / size))
    gm = gs.values * grid.measure()
    want = np.array([[np.sum(slice_value(fs, t - z) * gm * np.exp(0.35j * (t * np.conj(z)).imag))
                      for t in row] for row in targets])
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))    # measured <= 2.9e-15
    rho = np.abs(targets.ravel()[:, None, None] - z)
    cut = interp.boundary * sum(np.abs(gm)[p > grid.r_max].sum() for p in rho)
    total = sum(np.sum(np.abs(interp.coefficients(p)).sum(axis=-1) * np.abs(gm)) for p in rho)
    [(got_cut, got_total)] = masses
    assert cut > 0.0
    assert got_cut == pytest.approx(cut, rel=1e-13)
    assert got_total == pytest.approx(total, rel=1e-13)


def test_a_real_radial_slice_keeps_a_real_spline_table(grid):
    # every live coefficient of a real radial slice is real, so its spline
    # table is real; i times the slice keeps a complex table, and the two
    # interpolants agree up to that factor
    real = radial_slice(grid, 1.0, np.exp(-0.3 * grid.r ** 2))
    turned = SpectralSlice(1.0, grid, 1j * real.values)
    assert _interpolant(real).spline.c.dtype == np.float64
    assert _interpolant(turned).spline.c.dtype == np.complex128
    points = np.linspace(0.0, 7.9, 57) * np.exp(1j * np.linspace(0.0, 6.0, 57))
    want = slice_value(real, points)
    assert np.isrealobj(_interpolant(real).coefficients(np.abs(points)))
    assert np.max(np.abs(slice_value(turned, points) - 1j * want)) < 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("na", [64, 45])
def test_real_axis_targets_read_half_of_the_node_angles(na, monkeypatch):
    grid, fs, gs = _noisy_pair(na, 1.0)
    interp = _interpolant(fs)
    sizes = []
    evaluate = _Interpolant.coefficients
    monkeypatch.setattr(_Interpolant, "coefficients",
                        lambda self, rho: sizes.append(rho.size) or evaluate(self, rho))
    nr = grid.r.size
    with pytest.warns(RuntimeWarning, match="dropped by zero extension"):
        _ring_sum(interp, gs, [1.0, 1.0, 2.0, 0.5], [0.0, 0.4, 0.0, np.pi], 1)
    # theta0 = pi puts the target off the real axis by the round-off of e^{i pi}
    assert sizes == [nr * (na // 2 + 1), nr * na, nr * (na // 2 + 1), nr * na]
    sizes.clear()
    with pytest.warns(RuntimeWarning, match="dropped by zero extension"):
        twisted_convolution(fs, gs)
    assert sizes == [nr * (na // 2 + 1)] * nr


def test_orbit_and_point_evaluations_agree_at_grid_nodes(grid):
    # twisted_convolution sums whole orbits; hecke_bochner_check sums at
    # single targets; at the grid nodes both are the same ring sum, and on
    # orbits every target lies on the real axis, where only half of the node
    # angles are evaluated, while the single targets off it evaluate all
    _, _, fs, gs = _angular_pair(grid, 1.0)
    conv = twisted_convolution(fs, gs)
    nodes = [(5, 0), (40, 7), (70, 33), (90, 47)]
    z = np.array([grid.points()[i, a, 0] for i, a in nodes])
    got = _ring_sum(_interpolant(fs), gs, np.abs(z), np.angle(z), 1)[:, 0]
    want = np.array([conv.values[i, a] for i, a in nodes])
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(conv.values))


def test_rotating_f_and_g_rotates_the_convolution(grid):
    # rolling the angle columns of f and g by k rotates both by 2 pi k / na;
    # the twist is invariant under rotations, so the output columns roll too
    *_, gs = _angular_pair(grid, 1.0)
    z = grid.points()[:, :, 0]
    fs = SpectralSlice(1.0, grid, z * np.exp(-np.abs(z) ** 2)
                       + 0.3 * np.conj(z) ** 2 * np.exp(-0.8 * np.abs(z) ** 2))
    conv = twisted_convolution(fs, gs).values
    for k in (1, 7, 30):
        got = twisted_convolution(SpectralSlice(1.0, grid, np.roll(fs.values, k, axis=1)),
                                  SpectralSlice(1.0, grid, np.roll(gs.values, k, axis=1))).values
        assert np.max(np.abs(got - np.roll(conv, k, axis=1))) < 1e-13 * np.max(np.abs(conv))


@pytest.mark.parametrize("nsphere,fine", [(48, 288), (64, 256), (45, 135), (45, 100)])
def test_slice_value_on_a_ring_is_the_trigonometric_resampling(nsphere, fine):
    # between the grid's angles, slice_value on a grid ring is the
    # zero-padded trigonometric resampling of the ring's values (random
    # values: the Nyquist bin of an even count is live), for real values too
    grid = polar_grid(1, nr=24, r_max=6.0, nsphere=nsphere)
    rng = np.random.default_rng(5)
    shape = (grid.r.size, nsphere)
    real = rng.standard_normal(shape)
    points = grid.r[9] * np.exp(2j * np.pi * np.arange(fine) / fine)
    for values in (real + 1j * rng.standard_normal(shape), real):
        got = slice_value(SpectralSlice(1.0, grid, values), points)
        want = resample(values[9], fine)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("nsphere", [64, 45])
def test_slice_value_reproduces_the_node_values(nsphere):
    grid = polar_grid(1, nr=24, r_max=6.0, nsphere=nsphere)
    rng = np.random.default_rng(7)
    shape = (grid.r.size, nsphere)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = slice_value(SpectralSlice(1.0, grid, values), grid.points()[:, :, 0])
    assert np.max(np.abs(got - values)) < 1e-13 * np.max(np.abs(values))


def test_mass_beyond_r_max_warns_on_orbits_and_points(grid):
    wide = radial_slice(grid, 1.0, np.exp(-0.05 * grid.r ** 2))
    with pytest.warns(RuntimeWarning, match="dropped by zero extension"):
        twisted_convolution(wide, wide)
    with pytest.warns(RuntimeWarning, match="dropped by zero extension"):
        _ring_sum(_interpolant(wide), wide, [1.0], [0.3], 1)


def test_laguerre_eigenfunction_identity():
    # phi_j *_lam phi_k = (2 pi / |lam|) delta_jk phi_k on C^1
    grid = polar_grid(1, nr=96, r_max=10.0, nsphere=48)
    lam = 1.5
    mask = grid.r <= 5.0
    for j, k in [(1, 1), (2, 1)]:
        pj = radial_slice(grid, lam, laguerre_fn(j, lam, 1, grid.r))
        pk = radial_slice(grid, lam, laguerre_fn(k, lam, 1, grid.r))
        conv = twisted_convolution(pj, pk)
        want = (2 * np.pi / lam) * laguerre_fn(k, lam, 1, grid.r) if j == k else 0.0
        resid = conv.values[mask] - (want[mask, None] if j == k else 0.0)
        # measured 2.8e-6 (j = k) and 1.9e-5
        assert np.max(np.abs(resid)) < 2e-4, (j, k)


def test_convolution_input_validation(grid):
    f = radial_slice(grid, 1.0, np.exp(-grid.r ** 2))
    g = radial_slice(grid, 2.0, np.exp(-grid.r ** 2))
    with pytest.raises(ValueError):
        twisted_convolution(f, g)
    other = polar_grid(1, nr=32, r_max=8.0, nsphere=48)
    with pytest.raises(ValueError):
        twisted_convolution(f, radial_slice(other, 1.0, np.exp(-other.r ** 2)))
    g2 = polar_grid(2, nr=8, r_max=4.0)
    h = radial_slice(g2, 1.0, np.exp(-g2.r ** 2))
    with pytest.raises(NotImplementedError):
        twisted_convolution(h, h)
    with pytest.raises(ValueError):
        radial_slice(grid, 1.0, np.ones(3))


def test_slice_value_at_nan_and_infinite_points(grid):
    sl = radial_slice(grid, 1.0, np.exp(-grid.r ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (np.nan, complex(1.0, np.nan), complex(np.inf, np.nan),
                  np.array([0.5, complex(np.nan, 2.0)])):
            with pytest.raises(ValueError, match="non-finite point .*nan"):
                slice_value(sl, z)
        # zero extension: infinite points and points beyond r_max give 0
        for z in (np.inf, -np.inf, complex(0.0, -np.inf), complex(-np.inf, np.inf),
                  9.0, 1e308 + 1e308j):
            assert slice_value(sl, z) == 0.0
        got = slice_value(sl, np.array([np.inf, 0.5, -1e300j]))
        assert got[0] == got[2] == 0.0
        assert abs(got[1] - math.exp(-0.25)) < 1e-4


def test_non_finite_slice_values_raise(grid):
    for bad in (np.nan, np.inf, complex(1.0, -np.inf)):
        values = np.exp(-np.abs(grid.points()[:, :, 0]) ** 2).astype(complex)
        values[7, 3] = bad
        f = SpectralSlice(1.0, grid, values)
        with pytest.raises(ValueError, match=r"values of slice f must be finite, got .* at index \(7, 3\)"):
            twisted_convolution(f, f)
        with pytest.raises(ValueError, match="values of slice sl must be finite"):
            slice_value(f, 0.5)
    r, w = radial_rule(32, 6.0)
    values = np.exp(-r ** 2)
    values[-1] = np.nan
    with pytest.raises(ValueError, match="values of g must be finite"):
        hecke_bochner_check(RadialProfile(r, values, weights=w), 0, 0, 1, (0,), 1.0, 1, 0.5)


def test_non_finite_radii_and_targets_raise(grid):
    f = radial_slice(grid, 1.0, np.exp(-grid.r ** 2))
    r, w = radial_rule(64, 8.0)
    g = RadialProfile(r, np.exp(-r ** 2), weights=w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"ring radii must be finite, got -?(nan|inf) at index \(1,\)"):
                convolution_rings(f, f, [1.0, bad])
        for z in (complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.5, -np.inf),
                  np.array([0.9, complex(np.nan, np.nan)])):
            with pytest.raises(ValueError, match="targets z must be finite"):
                hecke_bochner_check(g, 0, 0, 1, (0,), 1.0, 1, z)


def test_empty_input_gives_an_empty_result(grid):
    # as in every other engine: no rings and no targets give empty arrays,
    # and the masses of an empty sum are 0, so nothing warns
    f = radial_slice(grid, 1.0, np.exp(-grid.r ** 2))
    r, w = radial_rule(64, 8.0)
    g = RadialProfile(r, np.exp(-r ** 2), weights=w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rings = convolution_rings(f, f, [])
        pairs = hecke_bochner_check(g, 1, 0, 1, (0, 1, 2), 1.0, 1, np.array([], complex))
    assert rings.shape == (0, grid.omega.shape[0])
    assert len(pairs) == 3
    for lhs, rhs in pairs:          # k = 0 < p is annihilated, k = 1, 2 are not
        assert lhs.shape == rhs.shape == (0,)


def test_laguerre_projection_closed_form():
    # g = phi_{0,lam} in dimension m: integral is Gamma(m) 2^{m-1} / |lam|^m
    r, w = radial_rule(96, 12.0)
    for lam in (0.7, -1.3):
        for m in (1, 2, 3):
            g = RadialProfile(r, np.exp(-0.25 * abs(lam) * r ** 2), weights=w)
            got = laguerre_projection(g, 0, lam, m)
            want = math.factorial(m - 1) * 2.0 ** (m - 1) / abs(lam) ** m
            assert got == pytest.approx(want, rel=1e-12)
            # orthogonality kills every higher mode
            for k in (1, 2):
                assert abs(laguerre_projection(g, k, lam, m)) < 1e-12


def test_laguerre_projection_validation():
    r, w = radial_rule(64, 10.0)
    g = RadialProfile(r, np.exp(-r ** 2), weights=w)
    with pytest.raises(ValueError):
        laguerre_projection(g, 0, 0.0, 1)
    with pytest.raises(ValueError):
        laguerre_projection(g, 0, 1.0, 0)
    with pytest.raises(ValueError):
        laguerre_projection(RadialProfile(r, np.exp(-r ** 2)), 0, 1.0, 1)
    slow = RadialProfile(r, np.exp(-0.05 * r ** 2), weights=w)
    with pytest.warns(RuntimeWarning, match="not decayed"):
        laguerre_projection(slow, 0, 0.2, 1)


def test_hecke_bochner_radial_case_and_annihilation():
    r, w = radial_rule(96, 8.0)
    g = RadialProfile(r, np.exp(-r ** 2), weights=w)
    [(lhs, rhs)] = hecke_bochner_check(g, 0, 0, 1, (0,), 1.0, 1, 0.9 + 0.0j)
    assert abs(lhs - rhs) < 5e-6 * abs(rhs)       # measured 4.1e-7
    # k < p: the product is annihilated, so the grid route must be tiny
    [(lhs, rhs)] = hecke_bochner_check(g, 1, 0, 1, (0,), 1.0, 1, 0.9 + 0.0j)
    assert rhs == 0.0
    assert abs(lhs) < 5e-8                        # measured 4.3e-9


def test_partial_fourier_t_separable_gaussian():
    grid = polar_grid(1, nr=24, r_max=4.0, nsphere=16)
    t = np.linspace(-8.0, 8.0, 161)
    gz = np.exp(-grid.r ** 2)[:, None] * np.ones(16)[None, :]
    vals = gz[:, :, None] * np.exp(-t ** 2)[None, None, :]
    lam = 1.1
    sl = partial_fourier_t(vals, lam, grid, t)
    want = gz * np.sqrt(np.pi) * np.exp(-lam ** 2 / 4.0)
    assert np.max(np.abs(sl.values - want)) < 1e-9
    with pytest.raises(ValueError):
        partial_fourier_t(vals[:, :, :10], lam, grid, t)
    short = np.linspace(-1.0, 1.0, 21)
    vals_short = gz[:, :, None] * np.exp(-short ** 2)[None, None, :]
    with pytest.warns(RuntimeWarning, match="truncated"):
        partial_fourier_t(vals_short, lam, grid, short)


def test_partial_fourier_t_keeps_real_samples_real():
    # real samples are contracted against the real and imaginary parts of
    # the phase; complex samples take the same route, by linearity
    grid = polar_grid(1, nr=24, r_max=4.0, nsphere=16)
    t = np.linspace(-8.0, 8.0, 161)
    rng = np.random.default_rng(3)
    vals = (np.exp(-grid.r ** 2)[:, None, None] * np.exp(-t ** 2)[None, None, :]
            * (1.0 + 0.2 * rng.standard_normal((grid.r.size, 16, t.size))))
    real = partial_fourier_t(vals, 1.1, grid, t).values
    scale = np.max(np.abs(real))
    assert np.max(np.abs(partial_fourier_t(vals.astype(complex), 1.1, grid, t).values - real)) \
        < 1e-15 * scale
    c = 0.6 - 0.8j
    assert np.max(np.abs(partial_fourier_t(c * vals, 1.1, grid, t).values - c * real)) \
        < 1e-15 * scale


def test_partial_fourier_t_rejects_non_finite_input():
    grid = polar_grid(1, nr=12, r_max=4.0, nsphere=8)
    t = np.linspace(-6.0, 6.0, 25)
    vals = np.exp(-grid.r ** 2)[:, None, None] * np.exp(-t ** 2)[None, None, :] * np.ones(8)[:, None]
    bad_vals = vals.astype(complex)
    bad_vals[3, 5, 7] = complex(1.0, np.nan)
    inf_vals = vals.copy()
    inf_vals[2, 0, 9] = -np.inf
    bad_t = t.copy()
    bad_t[4] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"samples of f must be finite, got .*nan.* at index \(3, 5, 7\)"):
            partial_fourier_t(bad_vals, 1.1, grid, t)
        with pytest.raises(ValueError, match=r"samples of f must be finite, got -inf at index \(2, 0, 9\)"):
            partial_fourier_t(inf_vals, 1.1, grid, t)
        with pytest.raises(ValueError, match="lam must be finite, got nan"):
            partial_fourier_t(vals, np.nan, grid, t)
        with pytest.raises(ValueError, match=r"t nodes must be finite, got nan at index \(4,\)"):
            partial_fourier_t(vals, 1.1, grid, bad_t)
        with pytest.raises(ValueError, match=r"t weights must be finite, got inf at index \(24,\)"):
            partial_fourier_t(vals, 1.1, grid, t, np.where(t == t[-1], np.inf, 0.5))
        with pytest.raises(ValueError, match="overflows"):
            partial_fourier_t(np.full(vals.shape, 1e308), 0.0, grid, t)
