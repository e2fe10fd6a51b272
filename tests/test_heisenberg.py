"""Group law, heat kernel inversion, scaling, and the Gaussian bound check."""

import math
import warnings

import numpy as np
import pytest

from heisenkit import heisenberg, oracles, quadrature
from heisenkit.heisenberg import (
    HeisenbergPoint,
    group_inverse,
    group_law,
    heat_kernel_grid,
    heat_kernel_lambda,
)
from heisenkit.oracles import heat_kernel
from heisenkit.quadrature import QuadratureError, gauss_panels


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


def _mp_profile(mpmath, lam, zeta, n, r):
    """(lam / sinh(lam zeta))^n e^{-lam coth(lam zeta) r^2 / 4} in mpmath's
    working precision, rounded to a Python complex."""
    z, r2 = mpmath.mpc(zeta), mpmath.mpf(r) ** 2
    if lam == 0:
        return complex(z ** -n * mpmath.exp(-r2 / (4 * z)))
    x = mpmath.mpf(lam) * z
    return complex((lam / mpmath.sinh(x)) ** n * mpmath.exp(-lam * mpmath.coth(x) * r2 / 4))


def test_hyperbolic_gaussian_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in (1, 2):
            for lam in (0.0, 1e-9, -1e-9, 0.5, 40.0, 720.0, -800.0):
                for zeta in (1.0, 1.0 + 0.5j, 0.3 + 1.0j):
                    for r in (0.0, 0.5, 3.0):
                        got = complex(heat_kernel_lambda(zeta, lam, r, n)) * (4 * math.pi) ** n
                        want = _mp_profile(mpmath, lam, zeta, n, r)
                        # relative, or absolute where the value underflows
                        assert abs(got - want) <= max(1e-13 * abs(want), 1e-300), \
                            (n, lam, zeta, r, got, want)


def test_scalar_profile_of_the_oracle_against_mpmath():
    # `heat_kernel`'s own profile, at the midpoint lam = 0 of its symmetric
    # rule, near it (a subnormal lam zeta would overflow 1 / sinh), at 1,
    # just below the cutoff that ends its integral, and far past it, where
    # sinh(lam zeta) overflows and the profile underflows to 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in (1, 2):
            for zeta in (0.6 + 0j, 1.0 + 0.5j, 0.5 + 1.0j):
                cutoff = heisenberg._lam_cutoff(zeta, n, 1, 1e-15)
                for lam in (0.0, 5e-324, 1e-8, 1.0, math.nextafter(cutoff, 0.0), 2e3):
                    for r in (0.0, 0.5, 3.0):
                        got = oracles._profile(lam, zeta, n, r)
                        want = _mp_profile(mpmath, lam, zeta, n, r)
                        assert abs(got - want) <= max(1e-13 * abs(want), 1e-300), \
                            (n, lam, zeta, r, got, want)
                        assert oracles._profile(-lam, zeta, n, r) == got
    # r^2 overflows, or the exponent lies below -745: exactly 0, with no
    # warning and no NaN on the way (a real zeta gives the rate a zero
    # imaginary part, which times r^2 = inf is NaN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zeta in (1.0 + 0j, 1.0 + 0.5j):
            for lam in (0.0, 1.0):
                for r in (1e200, 1e5):
                    assert oracles._profile(lam, zeta, 1, r) == 0


def test_lone_rows_past_the_origin_match_mpmath():
    # a table's step pays for its smallest radius's size e^{-Re(1/zeta) r^2 / 4}:
    # without that term the rule for the row (0.05, 2, 0) fails its check
    mpmath = pytest.importorskip("mpmath")
    from heisenkit.htype import htype_heat_batch

    def inversion(zeta, r, t, power, bessel):
        # int_0^inf lam^power (lam / sinh(lam zeta)) e^{-lam coth(lam zeta) r^2 / 4} bessel dlam
        z = mpmath.mpc(zeta)

        def f(lam):
            if lam == 0:
                return 0 if power else mpmath.exp(-r * r / (4 * z)) / z
            return (lam ** power * lam / mpmath.sinh(lam * z)
                    * mpmath.exp(-lam * mpmath.coth(lam * z) * r * r / 4) * bessel(lam * t))

        ends = [0, 1, 4, 16, 64, 256, mpmath.inf]
        return complex(mpmath.quad(f, ends))

    with mpmath.workdps(30):
        for zeta, r, t in ((0.05, 2.0, 0.0), (0.05, 1.5, 0.2), (0.3 + 1.0j, 3.0, 1.0)):
            want = inversion(zeta, r, t, 0, mpmath.cos) / (4 * math.pi * math.pi)
            got = complex(heat_kernel_grid(zeta, [r], [t])[0])
            assert abs(got - want) <= 1e-9 * abs(want), (zeta, r, t, got, want)
        # k = 3: Jt_{1/2}(w) = 2 sin(w) / (sqrt(pi) w), and c(1, 3)
        want = inversion(1.0, 2.5, 0.5, 2, lambda w: 2 * mpmath.sin(w) / (mpmath.sqrt(mpmath.pi) * w))
        want *= 2.0 ** -0.5 / (2.0 * (2.0 * math.pi) ** 2.5)
        got = float(htype_heat_batch(1.0, 1, 3, [2.5], [0.5])[0])
        assert abs(got - want.real) <= 1e-9 * abs(want.real), (got, want)


def test_profile_euclidean_limit_holds_at_small_times():
    # lam = 0, or |lam| far below 1 / |zeta|, is the Euclidean limit at any zeta
    for zeta in (1e-10, 1e-14j + 1e-15, 1e3):
        r = np.array([0.0, 0.1 * math.sqrt(abs(zeta))])
        want = (4 * np.pi * zeta) ** -1 * np.exp(-r * r / (4 * zeta))
        for lam in (0.0, 1e-300):
            got = heat_kernel_lambda(zeta, lam, r)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-15, (zeta, lam)


def test_profile_is_finite_far_out_in_lambda():
    # lam / sinh(lam) overflows neither sinh nor cosh: the value underflows to 0
    vals = heat_kernel_lambda(1.0, 800.0, [0.0, 0.5])
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("zeta", [1.0, 0.3 + 1j])
def test_profile_reads_zero_where_2_lam_overflows(zeta):
    # past |lam| = 9e307 both 2 |lam| and 2 lam zeta overflow; the profile
    # lies far below double range there, and must read 0, not NaN
    for n in (1, 2):
        vals = heat_kernel_lambda(zeta, 1e308, [0.0, 0.5], n)
        assert np.array_equal(vals, [0.0, 0.0]), (n, vals)
        assert heat_kernel_lambda(zeta, -1.7e308, 0.5, n) == 0.0


def test_profile_euclidean_limit_is_continuous():
    r = np.array([0.0, 0.8, 2.1])
    limit = heat_kernel_lambda(1.0, 0.0, r)
    assert np.allclose(limit, (4 * np.pi) ** -1 * np.exp(-r * r / 4), rtol=1e-15)
    near = heat_kernel_lambda(1.0, 2e-8, r)   # just above the limit cut
    assert np.max(np.abs(near - limit) / np.abs(limit)) < 1e-8


def test_profile_pole_raises_for_purely_imaginary_time():
    # sinh(i lam s) = i sin(lam s) vanishes at lam s = pi
    with pytest.raises(ValueError, match="pole"):
        heat_kernel_lambda(complex(0.0, np.pi), 1.0, 0.5)
    # off the pole the oscillatory profile is fine
    val = heat_kernel_lambda(1j, 1.0, 0.5)
    assert np.isfinite(val)
    # so it is just below |lam s| = 1e12, where a pole keeps its own message
    assert np.isfinite(heat_kernel_lambda(1j, 0.9e12, 0.5))
    with pytest.raises(ValueError, match="profile pole: sinh"):
        heat_kernel_lambda(1j, np.pi * (1 << 38), 0.5)


@pytest.mark.parametrize("lam,zeta", [(2e12, 1j), (2.00005e12, 1j), (-1e12, 1j),
                                      (1e200, 1e200j), (complex(3e12), 0.5j)])
def test_a_pole_past_resolution_says_so(lam, zeta):
    # past |lam Im zeta| = 1e12 a pole of sinh(lam * zeta) cannot be told from
    # round-off (1e200 * 1e200 overflows to inf); the message names both
    with pytest.raises(ValueError, match=r"too large to tell a pole .* from round-off "
                                         r"\(lam=.*, zeta=.*\)"):
        heat_kernel_lambda(zeta, lam, 0.5)


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
    # at Re zeta = 0.3 the profile's pole i pi / zeta lies 0.86 from the
    # real axis: the trapezoid step shrinks with that strip, so that the
    # rule and the rule of half its step agree, instead of raising
    zeta = 0.3 + 1.0j
    r = np.array([0.0, 0.7, 1.5, 3.0])
    t = np.array([-2.5, 0.0, 1.2, 3.0])
    grid = heat_kernel_grid(zeta, r[:, None], t[None, :])
    for i in range(r.size):
        for j in range(t.size):
            want = heat_kernel(zeta, HeisenbergPoint((r[i],), t[j]))
            assert abs(grid[i, j] - want) < 1e-8 * abs(want)


@pytest.mark.parametrize("zeta", [1.0, 1.0 + 0.5j, 0.3 + 1.0j])
def test_grid_cutoff_sits_within_one_percent_above_the_envelope_crossing(zeta, engine_cutoffs):
    heat_kernel_grid(zeta, np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    (lam_max,) = engine_cutoffs
    eps = complex(zeta).real

    def envelope(lam):
        return lam / math.sinh(lam * eps)

    # 1e-15 of the peak |zeta|^{-1}
    floor = 1e-15 / abs(zeta)
    assert envelope(lam_max) <= floor < envelope(lam_max / 1.01)


def _table_axis(rng, lo, hi, size):
    return np.concatenate([[lo], np.sort(rng.uniform(lo, hi, size - 2)), [hi]])


def test_table_shapes_converge_at_the_first_comparison(trapezoid_rules):
    # the trapezoid step is sized from the strip of analyticity, so a table
    # is one rule, compared once with the rule of twice its step; the node
    # counts pin that step (h / 2 = 0.6 pi d / (37 + d max|t|) at r = 0)
    rng = np.random.default_rng(0)
    r = _table_axis(rng, 0.0, 4.0, 64)
    t_nodes, _ = gauss_panels(-15.0, 15.0, 24, 16)
    shapes = [(1.0, r, _table_axis(rng, -3.0, 3.0, 32), 309),
              (1.0 + 0.5j, r, _table_axis(rng, -3.0, 3.0, 16), 371),
              (0.3 + 1.0j, r, _table_axis(rng, -3.0, 3.0, 8), 3267),
              # the heat-roundtrip check of the semigroup suite
              (1.0, np.array([0.5, 1.2, 2.0]), t_nodes, 557)]
    for zeta, rr, tt, nodes in shapes:
        trapezoid_rules.clear()
        heat_kernel_grid(zeta, rr[:, None], tt[None, :])
        assert [n for n, _ in trapezoid_rules] == [nodes], (zeta, rr.size, tt.size)


def test_each_radius_ends_where_its_bound_falls_below_its_own_floor(trapezoid_rules):
    # on a large table each radius r ends where lam |lam / sinh(lam eps)|
    # e^{-lam tanh(lam eps) r^2 / 4} bounds the integrand below 1e-15 of the
    # row's own size |zeta|^{-1} e^{-Re(1/zeta) r^2 / 4}, within one of the
    # 256 samples of [0, L] past the crossing
    zeta = 0.3 + 1.0j
    eps, b = zeta.real, (1.0 / zeta).real
    r = np.linspace(0.0, 4.0, 64)
    heat_kernel_grid(zeta, r[:, None], np.linspace(-3.0, 3.0, 8)[None, :])
    ((_, ends),) = trapezoid_rules
    lam_max = ends[0]
    assert np.all(np.diff(ends) <= 0) and ends[-1] < 0.1 * lam_max

    def log_excess(lam, rr):
        # log of bound / floor, which is negative past the cutoff
        log_bound = math.log(lam / math.sinh(lam * eps)) - lam * math.tanh(lam * eps) * rr * rr / 4
        return log_bound - math.log(1e-15 / abs(zeta)) + b * rr * rr / 4

    for rr, end in zip(r, ends):
        grid = np.linspace(end, lam_max, 50)
        assert all(log_excess(lam, rr) <= 0 for lam in grid), rr
        if end < lam_max:
            assert log_excess(end - 2.0 * lam_max / 256, rr) > 0, rr


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


@pytest.mark.parametrize("n", [0, -1, 1.5])
def test_grid_rejects_a_dimension_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match="dimension n must be a positive integer"):
        heat_kernel_grid(1.0, [1.0], [0.0], n=n)


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


@pytest.mark.parametrize("s", [100.0, 1000.0, 1e4, 1e5])
def test_pointwise_kernel_holds_at_large_times(s):
    # the oracle ends where the engine does (~0.04 at s = 1000), and its
    # absolute tolerance shrinks with q's size s^{-2}; measured at most
    # 6.1e-16 relative to the engine for s from 1e2 to 1e8
    r = np.array([0.0, 0.5, 1.0, 3.0])
    t = np.array([0.0, 0.1, 2.0, -5.0])
    grid = heat_kernel_grid(s, r, t)
    for i in range(r.size):
        want = heat_kernel(s, HeisenbergPoint((r[i],), t[i]))
        assert abs(grid[i] - want) < 1e-12 * abs(grid[i])


@pytest.mark.parametrize("zeta", [0.3, 1.0, 2.0, 1.0 + 0.5j, 0.5 + 1.0j])
def test_kernel_at_the_center_axis_is_the_closed_form(zeta):
    # at n = 1, q_zeta(0, t) = sech^2(pi t / (2 zeta)) / (16 zeta^2), which
    # neither route uses; measured at most 1.7e-15 of 1 / (16 |zeta|^2)
    t = np.linspace(-4.0, 4.0, 33)
    want = 1.0 / (16.0 * zeta ** 2 * np.cosh(0.5 * np.pi * t / zeta) ** 2)
    scale = 1.0 / (16.0 * abs(zeta) ** 2)
    grid = heat_kernel_grid(zeta, 0.0, t)
    point = np.array([heat_kernel(zeta, HeisenbergPoint((0.0,), tt)) for tt in t])
    assert np.max(np.abs(grid - want)) < 1e-13 * scale
    assert np.max(np.abs(point - want)) < 1e-13 * scale


@pytest.mark.parametrize("zeta,r,t", [
    (1.0, [0.0, 1.0], [10.0, 15.0]),
    (1.0, [0.0, 1.0], [20.0, 25.0]),
    (1.0, [0.0, 1.0], [30.0, 40.0]),
    (0.2, [0.0, 1.0], [5.0, 10.0]),
    (1.0, [2.0], [np.linspace(0.0, 30.0, 301)[237]]),
    (0.1, [1.0], [10.0]),
    (2.0, [3.0], [np.linspace(14.0, 34.0, 61)[59]]),
], ids=["zeta1-t10", "zeta1-t20", "zeta1-t30", "zeta0.2-t5", "zeta1-t23.7-rounds-to-0",
        "zeta0.1-t10-round-off-repeats", "zeta2-t33.7-round-off-repeats"])
def test_grid_raises_in_the_far_field(zeta, r, t):
    # every value is below ~1e-8 of q_zeta(r, 0), where the round-off of
    # the sums keeps the two rules from agreeing to 1e-9 of the largest one;
    # at t = 23.7 every rule after the first reads round-off below 2e-18 (a
    # rule can read exactly 0), and that is not agreement.  In the last two
    # cases two successive rules read the same round-off to the last bit
    # (-1.2e-16 before the final 1/(4 pi^2) at zeta = 0.1), far below the
    # round-off of their sums
    with pytest.raises(QuadratureError, match="failed to converge"):
        heat_kernel_grid(zeta, r, t)


def test_grid_converges_above_the_far_field_limit():
    # q_1(0, 5) ~ 6e-7 q_1(0, 0) is above the limit
    vals = heat_kernel_grid(1.0, [0.0, 1.0], [5.0, 10.0])
    want = heat_kernel(1.0, HeisenbergPoint((0.0,), 5.0))
    assert abs(vals[0] - want) < 1e-8 * abs(want)


def test_pointwise_and_grid_kernels_read_zero_far_past_the_peak():
    # |z| = 1e200 has no finite square: z_norm must not overflow on the way
    # to the kernel, and both routes underflow to exactly 0 without warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert heat_kernel(1.0, HeisenbergPoint((1e200,), 0.0)) == 0
        assert heat_kernel_grid(1.0, [1e200], [0.0])[0] == 0
    assert HeisenbergPoint((1e200, 1e200j), 0.0).z_norm == math.hypot(1e200, 1e200)


def test_grid_blocking_leaves_every_bit(monkeypatch):
    # scattered points are summed point by point, in blocks of points; the
    # smallest budget gathers one point per block
    r, t = np.linspace(0.0, 3.0, 65), np.linspace(-1.0, 1.0, 65)
    whole = heat_kernel_grid(1.0 + 0.5j, r, t)
    monkeypatch.setattr(quadrature, "_GRID_BLOCK", 1)
    assert np.array_equal(heat_kernel_grid(1.0 + 0.5j, r, t), whole)


@pytest.mark.parametrize("zeta", [1.0, 1.0 + 0.5j, 0.5 + 1.0j])
def test_product_and_gathered_contractions_agree(zeta):
    # the full grid is one matrix product; without its last point the 9 x 7
    # pairs outnumber the points, and each point is summed on its own
    r, t = np.broadcast_arrays(np.linspace(0.0, 3.0, 9)[:, None], np.linspace(-2.0, 2.5, 7))
    full = heat_kernel_grid(zeta, r, t).ravel()
    part = heat_kernel_grid(zeta, r.ravel()[:-1], t.ravel()[:-1])
    assert np.max(np.abs(part - full[:-1])) <= 1e-15 * np.max(np.abs(full))


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
    # the largest ratio of q_s to s^{-2} e^{-(pi/2)|t|/s - |z|^2/(4s)} is the
    # same under the parabolic rescaling s -> 4s, (z, t) -> (2z, 4t)
    def bound_constant(s, r, t):
        q = heat_kernel_grid(s, r, t).real
        return float(np.max(q / (s ** -2 * np.exp(-0.5 * np.pi * np.abs(t) / s - r * r / (4 * s)))))

    r, t = np.repeat([0.0, 0.7, 1.5, 2.5], 3), np.tile([-2.0, 0.0, 0.9], 4)
    c = bound_constant(1.0, r, t)
    assert c > 0
    for s, scale in ((4.0, 2.0), (0.25, 0.5)):
        assert bound_constant(s, scale * r, scale ** 2 * t) == pytest.approx(c, rel=1e-6)


def test_time_and_argument_validation():
    with pytest.raises(ValueError):
        heat_kernel_lambda(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        heat_kernel_lambda(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        heat_kernel(1j, HeisenbergPoint((1.0,), 0.0))
    with pytest.raises(ValueError):
        heat_kernel_lambda(1.0, 1.0, 1.0, n=0)
    with pytest.raises(ValueError):
        HeisenbergPoint((), 0.0)
