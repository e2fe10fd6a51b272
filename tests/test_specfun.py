import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gamma, jv

from heisenkit import specfun
from heisenkit.specfun import (_laguerre_rows, bessel_j_tilde, hille_hardy,
                               jtilde_of_square, laguerre, laguerre_fn,
                               laguerre_series_sum)


def _bessel_j(alpha, w):
    """J_alpha(w) = (w/2)^alpha Jt_alpha(w) for w >= 0."""
    return (0.5 * np.asarray(w)) ** alpha * bessel_j_tilde(alpha, w)


def test_laguerre_frozen_values():
    # L_1^1(0) = 2, L_2^0(1) = -1/2, L_0 = 1
    assert laguerre(1, 1.0, 0.0) == pytest.approx(2.0, abs=1e-14)
    assert laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, abs=1e-14)
    assert laguerre(0, 3.7, 12.3) == 1.0


def test_laguerre_matches_scipy():
    t = np.linspace(0.0, 30.0, 91)
    for k in (0, 1, 3, 7, 19, 25, 40):
        for alpha in (0.0, 0.5, 1.0, 3.0):
            want = eval_genlaguerre(k, alpha, t)
            got = laguerre(k, alpha, t)
            assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-10


@given(k=st.integers(1, 49), alpha=st.floats(0.0, 4.0),
       t=st.floats(0.0, 25.0))
@settings(max_examples=60, deadline=None)
def test_laguerre_order_shift_identity(k, alpha, t):
    # L_k^a = L_k^{a+1} - L_{k-1}^{a+1}, independent of the evaluation recurrence
    lhs = laguerre(k, alpha, t)
    rhs = laguerre(k, alpha + 1.0, t) - laguerre(k - 1, alpha + 1.0, t)
    scale = max(abs(laguerre(k, alpha + 1.0, t)), abs(lhs), 1.0)
    assert abs(lhs - rhs) / scale < 1e-11


def test_laguerre_table_is_every_degree_of_one_recurrence():
    # the banded rows hold every degree of the one recurrence whose last
    # degree `laguerre` reads, degree 0 included
    t = np.linspace(0.0, 40.0, 33)
    for a in (0.0, 5.0, 32.0):
        rows = _laguerre_rows(a, t, 60)
        assert rows.shape == (33, 61)
        for k in (0, 1, 2, 17, 60):
            assert np.array_equal(rows[:, k], laguerre(k, a, t))
    assert np.array_equal(_laguerre_rows(0.5, t, 0), np.ones((33, 1)))
    assert laguerre(3, 1.0, np.zeros((0, 2))).shape == (0, 2)
    for alpha in (-1.0, -1.5):
        with pytest.raises(ValueError, match="must exceed -1"):
            _laguerre_rows(alpha, t, 3)


@pytest.mark.parametrize("call", [lambda t: laguerre(3, 0.5, t), lambda t: laguerre_fn(3, 1.7, 2, t),
                                  lambda t: bessel_j_tilde(-0.5, t), lambda t: bessel_j_tilde(0.3, t),
                                  lambda t: bessel_j_tilde(1.5, t)],
                         ids=["laguerre", "laguerre_fn", "jtilde-cos", "jtilde-series", "jtilde-lattice"])
def test_scalar_in_numpy_scalar_out(call):
    one = call(1.25)
    assert isinstance(one, np.floating) and not isinstance(one, np.ndarray)
    many = call(np.full((2, 3), 1.25))
    assert isinstance(many, np.ndarray) and many.shape == (2, 3)
    assert np.all(many == one)
    assert call(np.array([1.25])).shape == (1,)


def test_laguerre_fn_shape_and_evenness():
    r = np.linspace(0.0, 6.0, 25)
    plus = laguerre_fn(3, 1.7, 1, r)
    minus = laguerre_fn(3, -1.7, 1, r)
    assert np.allclose(plus, minus)
    want = eval_genlaguerre(3, 0, 1.7 * r * r / 2) * np.exp(-1.7 * r * r / 4)
    assert np.allclose(plus, want, atol=1e-12)
    with pytest.raises(ValueError):
        laguerre_fn(0, 0.0, 1, r)


def test_bessel_frozen_values():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x, so J_{1/2}(pi/2) = 2/pi
    assert _bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert _bessel_j(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    # independent integral representation at a mid-range argument
    want, _ = quad(lambda tau: math.cos(tau - 3.0 * math.sin(tau)), 0.0, math.pi)
    assert _bessel_j(1.0, 3.0) == pytest.approx(want / math.pi, rel=1e-12)


def test_bessel_matches_scipy_across_the_cutoff():
    # scipy's jv against both sides of the split w = floor(alpha) between
    # the 0F1 series and the seeded recurrence
    w = np.linspace(0.0, 60.0, 301)
    for alpha in (0.0, 0.5, 1.0, 2.5, 4.0):
        assert np.max(np.abs(_bessel_j(alpha, w) - jv(alpha, w))) < 2e-12
    with pytest.raises(ValueError):
        bessel_j_tilde(-1.0, 1.0)


def test_bessel_j_tilde_at_zero_and_evenness():
    for alpha in (0.0, 0.5, 2.0, 3.5):
        assert bessel_j_tilde(alpha, 0.0) == pytest.approx(1.0 / gamma(alpha + 1.0),
                                                           rel=1e-14)
    w = np.linspace(0.0, 20.0, 41)
    assert np.allclose(bessel_j_tilde(1.5, w), bessel_j_tilde(1.5, -w))


def test_jtilde_of_square_complex_argument():
    # at w2 < 0 the function is the modified-Bessel branch, still real
    got = jtilde_of_square(1.0, -9.0)
    want = (1.5) ** (-1.0) * np.real(jv(1.0, 3.0j) / 1.0j)  # I_1(3)/1.5
    assert complex(got).imag == pytest.approx(0.0, abs=1e-14)
    assert complex(got).real == pytest.approx(want, rel=1e-12)
    # agreement with the real route on the positive axis
    assert complex(jtilde_of_square(0.5, 6.25)).real == pytest.approx(
        bessel_j_tilde(0.5, 2.5), rel=1e-12)


_ORDERS = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)


def test_bessel_j_tilde_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    w = np.concatenate([np.linspace(0.0, 30.0, 121), rng.uniform(30.0, 1000.0, 80), [1000.0]])
    with mpmath.workdps(40):
        # 2.5 and 3 take two and three steps of the upward recurrence
        for alpha in _ORDERS + (2.5, 3.0):
            want = np.array([float(mpmath.hyp0f1(alpha + 1, -mpmath.mpf(x) ** 2 / 4)
                                   / mpmath.gamma(alpha + 1)) for x in w])
            err = np.max(np.abs(bessel_j_tilde(alpha, w) - want)) * gamma(alpha + 1.0)
            assert err <= 1e-14, (alpha, err)


def test_bessel_j_tilde_at_half_order_is_the_sine_form():
    # order l + 1/2 is 2^{l+1} j_l(w) / (sqrt(pi) w^l), a sine and cosine form,
    # to round-off of its envelope 2^{l+1} / (sqrt(pi) w^{l+1}), also where
    # w^l underflows; hyp0f1 at b = 5/2 and 7/2 is off by ~1e-14 of it
    mpmath = pytest.importorskip("mpmath")
    w = np.concatenate([[1e-300, 1e-20, 1e-8], np.linspace(0.0, 150.0, 301)])
    for l in (0, 1, 2):
        alpha = l + 0.5
        with mpmath.workdps(40):
            want = np.array([float(mpmath.hyp0f1(alpha + 1, -mpmath.mpf(x) ** 2 / 4)
                                   / mpmath.gamma(alpha + 1)) for x in w])
        envelope = 2.0 ** (l + 1) / math.sqrt(math.pi) / np.maximum(w, 1.0) ** (l + 1)
        assert np.max(np.abs(bessel_j_tilde(alpha, w) - want) / envelope) < 1e-15, alpha
        assert np.array_equal(bessel_j_tilde(alpha, -w), bessel_j_tilde(alpha, w))


_LATTICE = tuple(0.5 * m for m in range(-1, 9))     # orders -1/2 ... 4


def test_bessel_j_tilde_at_tiny_arguments_is_its_value_at_zero():
    # the seeds divide by w and j1(w) underflows at subnormal w: every order
    # must take 1 / Gamma(alpha + 1) there without a warning
    w = np.array([5e-324, 1e-300, 1e-20, 1e-8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in _LATTICE[:8]:
            got = bessel_j_tilde(alpha, w)
            assert np.all(np.abs(got * gamma(alpha + 1.0) - 1.0) <= 1e-15), alpha


def test_bessel_j_tilde_is_even_on_the_lattice_and_not_finite_past_its_range():
    # every split of the route (w = 0, w = floor(alpha), 1.34e154) is crossed
    w = np.concatenate([np.linspace(0.0, 20.0, 401), [5e-324, 1e-300, 1.4e154, 1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha in _LATTICE:
            assert np.array_equal(bessel_j_tilde(alpha, -w), bessel_j_tilde(alpha, w),
                                  equal_nan=True), alpha
        # w^2 overflows: the integer orders stay non-finite rather than read
        # cephes' phase noise of size 1e-100 as a value
        for alpha in _LATTICE[1::2]:
            assert not np.isfinite(bessel_j_tilde(alpha, 1e200)), alpha


def _jtilde_mpmath(mpmath, alpha, w):
    with mpmath.workdps(40):
        return np.array([float(mpmath.hyp0f1(alpha + 1, -mpmath.mpf(x) ** 2 / 4)
                               / mpmath.gamma(alpha + 1)) for x in w])


def _ulps_around(x, count):
    """x and `count` neighbouring floats on each side of it, within w >= 0."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    return np.unique(below + above)


def test_bessel_j_tilde_power_series_route_against_mpmath():
    # the lattice orders up to 8 take the power series on [0, floor(alpha))
    # and below w = 1e-8, and the recurrence from floor(alpha) on: relative
    # to 40-digit mpmath on both sides of the junction
    mpmath = pytest.importorskip("mpmath")
    for alpha in (0.5 * m for m in range(17)):
        floor = math.floor(alpha)
        w = np.concatenate([np.linspace(0.0, floor, 81)[:-1], [1e-300, 1e-9, 9.9e-9, 1e-8],
                            _ulps_around(float(floor), 4)])
        want = _jtilde_mpmath(mpmath, alpha, w)
        err = np.max(np.abs(bessel_j_tilde(alpha, w) - want) / np.abs(want))
        assert err <= 2e-15, (alpha, err)


@pytest.mark.parametrize("alpha", [9.0, 12.0])
def test_bessel_j_tilde_keeps_hyp0f1_on_its_band_past_order_eight(alpha, monkeypatch):
    # past order 8 the power series loses digits, so the band
    # 8 <= w < floor(alpha) stays with hyp0f1, and only that band
    mpmath = pytest.importorskip("mpmath")
    w = np.linspace(0.0, alpha + 2.0, 241)
    seen = []
    series = specfun._jtilde_series

    def spy(order, x):
        seen.append(np.array(x))
        return series(order, x)
    monkeypatch.setattr(specfun, "_jtilde_series", spy)
    got = bessel_j_tilde(alpha, w)
    band = (w >= 8.0) & (w < alpha)
    assert np.array_equal(np.concatenate(seen), w[band])
    want = _jtilde_mpmath(mpmath, alpha, w)
    err = np.max(np.abs(got - want)[band] / np.abs(want[band]))
    assert err <= 1e-14, err


def test_jtilde_of_square_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    w2 = 1e5 * rng.uniform(0.0, 1.0, 60) ** 2 * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 60))
    with mpmath.workdps(40):
        for alpha in _ORDERS:
            want = np.array([complex(mpmath.hyp0f1(alpha + 1, -mpmath.mpc(x) / 4)
                                     / mpmath.gamma(alpha + 1)) for x in w2])
            err = np.max(np.abs(jtilde_of_square(alpha, w2) - want) / np.abs(want))
            assert err <= 1e-13, (alpha, err)


def _hh_brute(alpha, x, y, w, K):
    out = 0.0j
    for k in range(K + 1):
        ratio = math.exp(math.lgamma(k + 1.0) - math.lgamma(k + alpha + 1.0))
        out += (ratio * eval_genlaguerre(k, alpha, x)
                * eval_genlaguerre(k, alpha, y) * w ** k)
    return out


def test_laguerre_series_sum_against_brute_force():
    for alpha, x, y, w in ((0.0, 1.0, 2.0, 0.4), (1.0, 0.0, 0.0, 0.5),
                           (2.0, 3.0, 0.7, -0.6), (1.0, 2.0, 2.0, 0.5j)):
        got = laguerre_series_sum(alpha, x, y, w, 200)
        want = _hh_brute(alpha, x, y, w, 200)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_series_at_w_zero_is_its_degree_zero_term():
    # every term past degree 0 is exactly 0, so a point stops at the end of
    # its first range with the degree-0 term 1 / Gamma(alpha + 1)
    for alpha in (0.0, 0.5, 1.0, 2.5):
        first = laguerre_series_sum(alpha, 1.3, 0.7, 0.0, 0)
        assert first == pytest.approx(1.0 / math.gamma(alpha + 1.0), rel=1e-15)
        for kmax in (1, 63, 64, 600):
            assert laguerre_series_sum(alpha, 1.3, 0.7, 0.0, kmax) == first
    assert laguerre_series_sum(1.0, 1.3, 0.7, 0.0, 600) == 1.0


@pytest.mark.parametrize("kmax", [0, 1, 2, 3])
def test_series_with_a_few_degrees_is_the_truncated_sum(kmax):
    for alpha, x, y, w in ((0.0, 1.0, 2.0, 0.4), (1.5, 0.3, 3.0, -0.7 + 0.2j)):
        want = _hh_brute(alpha, x, y, w, kmax)
        assert abs(laguerre_series_sum(alpha, x, y, w, kmax) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("kmax", [64, 192])
def test_series_one_degree_past_a_range_end_is_the_term_by_term_sum(kmax):
    # ranges of degrees end at 64, 192, 448, ...; at |w| = 0.84 the terms
    # near degree 190 are still ~1e-13 of the sum, so the point carries its
    # power and partial sum into a last range of one degree
    alpha, x, y, w = 1.0, 0.5, 1.5, 0.84 * np.exp(0.3j)
    want, ratio = 0.0, 1.0 / math.gamma(alpha + 1.0)
    for k in range(kmax + 1):
        want += ratio * laguerre(k, alpha, x) * laguerre(k, alpha, y) * w ** k
        ratio *= (k + 1.0) / (k + 1.0 + alpha)
    got = laguerre_series_sum(alpha, x, y, w, kmax)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_hille_hardy_frozen_point():
    # alpha=1, x=y=0: L_k^1(0) = k+1, so the sum is sum (k+1) w^k = (1-w)^{-2};
    # at w = 1/2 both routes must give 4
    lhs, rhs = hille_hardy(1.0, 0.0, 0.0, 0.5)
    assert lhs == pytest.approx(4.0, rel=1e-12)
    assert rhs == pytest.approx(4.0, rel=1e-12)


@given(alpha=st.sampled_from([0.0, 1.0, 2.0]),
       x=st.floats(0.0, 4.0), y=st.floats(0.0, 4.0),
       modulus=st.floats(0.05, 0.7), angle=st.floats(0.0, 2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_hille_hardy_identity_interior(alpha, x, y, modulus, angle):
    w = modulus * complex(math.cos(angle), math.sin(angle))
    lhs, rhs = hille_hardy(alpha, x, y, w)
    assert abs(lhs - rhs) / abs(rhs) < 1e-8


def test_hille_hardy_boundary_resummation():
    w = (1.0 - 1e-6) * np.exp(2.0j * np.pi / 3.0)
    lhs, rhs = hille_hardy(2.0, 1.0, 2.0, w, K=1500)
    assert abs(lhs - rhs) / abs(rhs) < 1e-3


def test_hille_hardy_on_the_unit_circle():
    # the series side is the Abel sum there; measured <= 4.1e-12
    w = np.exp(1j * np.array([0.5 * np.pi, 2.0 * np.pi / 3.0, np.pi, 4.0]))[:, None, None]
    x, y = np.array([0.0, 0.5, 1.0, 2.0])[:, None], np.array([0.5, 2.0])
    for alpha in (0.0, 1.0, 2.0):
        lhs, rhs = hille_hardy(alpha, x, y, w, K=1500)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-11, alpha


def test_laguerre_series_sum_takes_the_closed_disc():
    # |e^{i theta}| reads 1 + 2.2e-16 for some theta
    w = np.exp(1j * np.random.default_rng(3).uniform(0.5, 2.0 * math.pi - 0.5, 200))
    assert np.isfinite(laguerre_series_sum(1.0, 1.0, 1.5, w, 400)).all()
    with pytest.raises(ValueError, match="diverges"):
        laguerre_series_sum(0.0, 1.0, 1.0, 1.0 + 1e-9, 400)


def test_laguerre_series_sum_rejects_the_pole_neighborhood():
    with pytest.raises(ValueError):
        laguerre_series_sum(0.0, 1.0, 1.0, 1.0 - 1e-6, 400)
    with pytest.raises(ValueError, match="away from the point 1"):
        laguerre_series_sum(0.0, 1.0, 1.0, np.exp(0.01j), 400)


def test_a_tail_that_has_not_settled_raises():
    # near w = 1 at large x and y, 400 degrees leave the series 1.5e-4 off
    # the closed form, and its resummation moves 7.5e-4 over 32 degrees
    with pytest.raises(ValueError, match="has not settled"):
        hille_hardy(0.0, 4.0, 4.0, np.exp(0.3j), K=400)
    # below 32 degrees there is no earlier resummation to match
    with pytest.raises(ValueError, match="has not settled"):
        laguerre_series_sum(1.0, 1.0, 1.5, 0.9j, 31)


_BAD_SERIES_INPUT = {
    "nan-x": lambda: hille_hardy(0.0, math.nan, 1.0, 0.5),
    "inf-y": lambda: hille_hardy(0.0, 1.0, math.inf, 0.5),
    "overflowing-x": lambda: hille_hardy(0.0, 1e200, 1.0, 0.5),
    # terms 1.4e16 times the sum that they read (the closed form is 1.8e-18),
    # and a sum of 3.3e126 for 0
    "cancelling-x": lambda: hille_hardy(0.0, 60.0, 1.0, 0.5),
    "cancelling-large-x": lambda: hille_hardy(0.0, 1000.0, 1.0, 0.5),
    "fractional-K": lambda: hille_hardy(0.0, 1.0, 1.0, 0.5, 2.5),
    "negative-kmax": lambda: laguerre_series_sum(0.0, 1.0, 1.0, 0.5, -3),
    "order-below-minus-one": lambda: laguerre_series_sum(-1.5, 1.0, 1.0, 0.5, 30),
    "kmax-past-one-block": lambda: laguerre_series_sum(0.0, 1.0, 1.0, 0.5, 1 << 16),
}


@pytest.mark.parametrize("call", list(_BAD_SERIES_INPUT.values()), ids=list(_BAD_SERIES_INPUT))
def test_series_rejects_bad_input_without_numpy_warnings(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("alpha,x,y,w,rtol", [(0.0, 20.0, 1.0, 0.5, 1e-8),
                                              (0.0, 300.0, 300.0, -0.9, 1e-12)])
def test_series_with_large_arguments_that_keeps_its_digits(alpha, x, y, w, rtol):
    # the largest term is 1.8e6 times the sum at x = 20, which keeps ~1e-10,
    # and 950 times it at x = y = 300, where both are e^{~280}
    lhs, rhs = hille_hardy(alpha, x, y, w)
    assert abs(lhs - rhs) <= rtol * abs(rhs)


def _mixed_batch(n):
    """n points with |w| <= 0.85 and n with |w| > 0.85, away from w = 1."""
    rng = np.random.default_rng(18)
    modulus = np.concatenate((rng.uniform(0.05, 0.85, n), rng.uniform(0.86, 0.97, n)))
    w = modulus * np.exp(1j * rng.uniform(0.4, 2.0 * math.pi - 0.4, 2 * n))
    return rng.uniform(0.0, 4.0, 2 * n), rng.uniform(0.0, 4.0, 2 * n), w


def test_array_calls_equal_per_point_calls():
    # the |w| > 0.85 half takes K = 4000 each, so it spans several blocks
    x, y, w = _mixed_batch(40)
    lhs, rhs = hille_hardy(1.5, x, y, w)
    kmax = np.where(np.abs(w) <= 0.85, 250, 1200)
    series = laguerre_series_sum(0.5, x, y, w, kmax)
    for i in range(w.size):
        one_lhs, one_rhs = hille_hardy(1.5, x[i], y[i], w[i])
        assert abs(lhs[i] - one_lhs) <= 1e-14 * abs(one_lhs), i
        assert abs(rhs[i] - one_rhs) <= 1e-14 * abs(one_rhs), i
        one = laguerre_series_sum(0.5, x[i], y[i], w[i], kmax[i])
        assert abs(series[i] - one) <= 1e-14 * abs(one), i
    assert lhs.shape == rhs.shape == series.shape == w.shape


def test_series_matches_high_precision_truncation():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0.0, 4.0, 6), rng.uniform(0.0, 4.0, 6)
    w = rng.uniform(0.1, 0.7, 6) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 6))
    K = 300
    got = laguerre_series_sum(1.0, x, y, w, K)
    with mpmath.workdps(40):
        for i in range(w.size):
            a, xi, yi, wi = mpmath.mpf(1), mpmath.mpf(x[i]), mpmath.mpf(y[i]), mpmath.mpc(w[i])
            lx0, lx, ly0, ly = 0, mpmath.mpf(1), 0, mpmath.mpf(1)
            g = 1 / mpmath.gamma(a + 1)
            total, power = g, mpmath.mpf(1)
            for k in range(1, K + 1):
                lx0, lx = lx, ((2 * k - 1 + a - xi) * lx - (k - 1 + a) * lx0) / k
                ly0, ly = ly, ((2 * k - 1 + a - yi) * ly - (k - 1 + a) * ly0) / k
                g *= mpmath.mpf(k) / (k + a)
                power *= wi
                total += g * lx * ly * power
            want = complex(total)
            assert abs(got[i] - want) <= 1e-13 * abs(want), (i, got[i], want)


def test_banded_rows_match_mpmath_laguerre():
    mpmath = pytest.importorskip("mpmath")
    degrees = np.unique(np.concatenate((np.arange(40), np.geomspace(40, 1500, 40).astype(int))))
    t = np.array([0.0, 0.7, 6.3, 45.3])
    for alpha in (-0.5, 0.0, 2.0):
        rows = _laguerre_rows(alpha, t, 1500)
        scale = np.maximum.accumulate(np.abs(rows), axis=1)
        with mpmath.workdps(30):
            for i, ti in enumerate(t):
                for k in degrees:
                    want = float(mpmath.laguerre(int(k), alpha, ti))
                    assert abs(rows[i, k] - want) <= 1e-12 * scale[i, k], (alpha, ti, k)
