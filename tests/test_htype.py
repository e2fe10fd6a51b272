"""H-type heat kernel, its Radon collapse, and the inherited gate."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from heisenkit import htype
from heisenkit.heisenberg import HeisenbergPoint, heat_kernel_grid
from heisenkit.htype import (
    HTypePoint,
    htype_gate,
    htype_heat_batch,
    partial_radon,
    radon_heat_profile,
)
from heisenkit.oracles import heat_kernel, htype_heat_kernel
from heisenkit.quadrature import QuadratureError


def test_point_validation_and_properties():
    p = HTypePoint((0.6, 0.8, 0.0, 0.0), (0.3, -0.4))
    assert p.n == 2 and p.k == 2
    assert p.v_norm == pytest.approx(1.0)
    assert p.t_norm == pytest.approx(0.5)
    with pytest.raises(ValueError):
        HTypePoint((1.0, 0.0, 0.5), (0.0,))    # odd horizontal dimension
    with pytest.raises(ValueError):
        HTypePoint((), (0.0,))
    with pytest.raises(ValueError):
        HTypePoint((1.0, 0.0), ())
    with pytest.raises(ValueError):
        HTypePoint((1.0, 0.0), (0.0,) * 4)


def test_one_dimensional_center_is_the_heisenberg_kernel():
    p = HTypePoint((0.6, 0.8), (0.7,))
    got = htype_heat_kernel(1.0, p)
    want = heat_kernel(1.0, HeisenbergPoint((0.6 + 0.8j,), 0.7))
    assert abs(got - want) < 1e-10 * abs(want)


@pytest.mark.parametrize("v,t,factor", [
    ((0.5, 0.3), (0.4, -0.2), 64.0),           # n=1, k=2: 2^(2n+2k) = 64
    ((0.2, 0.2, 0.2, 0.2), (0.2, 0.1, 0.0), 1024.0),   # n=2, k=3
])
def test_parabolic_scaling_law(v, t, factor):
    # h_{4s}(2v, 4t) = 2^{-(2n+2k)} h_s(v, t)
    s = 0.5
    lhs = htype_heat_kernel(4 * s, HTypePoint(tuple(2 * x for x in v),
                                              tuple(4 * x for x in t)))
    rhs = htype_heat_kernel(s, HTypePoint(v, t)) / factor
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_batch_matches_pointwise():
    vn = np.array([0.3, 1.1])
    tn = np.array([0.0, 0.9])
    got = htype_heat_batch(1.0, 1, 2, vn[:, None], tn[None, :])
    for i, j in np.ndindex(2, 2):
        want = htype_heat_kernel(1.0, HTypePoint((vn[i], 0.0), (tn[j], 0.0)))
        assert abs(got[i, j] - want) < 1e-12 * abs(want)
    with pytest.raises(ValueError):
        htype_heat_kernel(-1.0, HTypePoint((0.5, 0.5), (0.2, 0.1)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_separable_batch_matches_pointwise_on_scattered_and_repeated_points(k):
    rng = np.random.default_rng(5 + k)
    scattered = (rng.uniform(0.0, 2.5, 7), rng.uniform(0.0, 2.5, 7))
    # a product grid whose axes repeat values, so the unique maps fold
    vn = np.array([0.3, 1.1, 0.3])
    tn = np.array([0.0, 0.9, 0.9, 1.6])
    product = np.broadcast_arrays(vn[:, None], tn[None, :])
    for vv, tt in (scattered, product):
        got = htype_heat_batch(1.0, 1, k, vv, tt)
        for idx in np.ndindex(vv.shape):
            t_vec = (tt[idx],) + (0.0,) * (k - 1)
            want = htype_heat_kernel(1.0, HTypePoint((vv[idx], 0.0), t_vec))
            assert abs(got[idx] - want) < 1e-10 * abs(want)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("s", [100.0, 1000.0, 1e4, 1e5])
def test_pointwise_kernel_holds_at_large_times(s, k):
    # the oracle ends where the batch does (~0.04 at s = 1000), and its
    # absolute tolerance shrinks with h's size s^{-1-k}; measured at most
    # 6.1e-16 relative to the batch for s from 1e2 to 1e8
    vn = np.array([0.0, 0.5, 1.0, 3.0])
    tn = np.array([0.0, 0.1, 2.0, 5.0])
    got = htype_heat_batch(s, 1, k, vn, tn)
    for i in range(vn.size):
        want = htype_heat_kernel(s, HTypePoint((vn[i], 0.0), (tn[i],) + (0.0,) * (k - 1)))
        assert abs(got[i] - want) < 1e-9 * abs(got[i])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("s", [1.0, 1e4, 1e8, 1e20])
def test_kernel_at_the_origin_is_the_closed_form_at_large_times(k, s):
    # h_s(0, 0) = c(1, k) s^{-k-1} int mu^k / sinh(mu) dmu times Jt_{k/2-1}(0):
    # 7 zeta(3) / 2 at k = 2, (pi^4 / 8) (2 / sqrt(pi)) at k = 3.  The
    # integrand's peak scales as s^{-n-k+1}, and so must the cutoff's floor
    c = 2.0 ** (1.0 - 0.5 * k) / (2.0 * (2.0 * math.pi) ** (1.0 + 0.5 * k))
    zeta3 = 1.2020569031595942
    moment = 3.5 * zeta3 if k == 2 else math.pi ** 4 / 8.0 * 2.0 / math.sqrt(math.pi)
    want = c * moment * s ** (-k - 1)
    batch = float(htype_heat_batch(s, 1, k, 0.0, 0.0))
    point = htype_heat_kernel(s, HTypePoint((0.0, 0.0), (0.0,) * k))
    assert batch == pytest.approx(want, rel=1e-13, abs=0.0)
    assert point == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pointwise_kernel_takes_huge_norms_without_warning(k):
    # 1e200 has no finite square: the norms must not overflow on the way to
    # the kernel, which underflows to exactly 0 in |v|; |t| = 1e200 leaves
    # QUADPACK an integrand it cannot resolve, and it says so
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert htype_heat_kernel(1.0, HTypePoint((1e200, 0.0), (0.5,) * k)) == 0
        assert htype_heat_kernel(1.0, HTypePoint((0.5, 1e200), (0.0,) * k)) == 0
        with pytest.raises(QuadratureError):
            htype_heat_kernel(1.0, HTypePoint((0.5, 0.0), (1e200,) * k))
    assert HTypePoint((1e200, 1e200), (1e200, 1e200)).v_norm == math.hypot(1e200, 1e200)


def test_pointwise_k3_kernel_settles_where_the_bessel_integrand_stopped_on_round_off():
    # in this window the Bessel-form integral stopped on QUADPACK round-off
    # at about one draw in five; on the sine weight none stops
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(400):
        s, vn, tn = rng.uniform(0.6, 0.8), rng.uniform(0.0, 1.0), rng.uniform(2.3, 2.6)
        u = rng.normal(size=3)
        got = htype_heat_kernel(s, HTypePoint((vn, 0.0), tuple(tn * u / np.linalg.norm(u))))
        want = htype_heat_batch(s, 1, 3, vn, tn)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-10


@pytest.mark.parametrize("vn,tn", [(0.0, 0.5), (0.7, 1.5), (1.2, 3.0)])
def test_pointwise_k3_kernel_is_the_bessel_form_integral(vn, tn):
    # lam^2 Jt_{1/2}(lam |t|) = 2 lam sin(lam |t|) / (sqrt(pi) |t|): the
    # sine-weighted kernel against c(1, 3) int lam^2 Jt_{1/2}(lam |t|) P dlam
    s = 1.0

    def bessel_form(lam):
        jt = 2.0 * math.sin(lam * tn) / (math.sqrt(math.pi) * lam * tn)
        return (lam ** 2 * jt * lam / math.sinh(s * lam)
                * math.exp(-lam / math.tanh(s * lam) * vn ** 2 / 4.0))

    c = 2.0 ** -0.5 / (2.0 * (2.0 * math.pi) ** 2.5)
    want = c * quad(bessel_form, 0.0, 40.0, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
    got = htype_heat_kernel(s, HTypePoint((vn, 0.0), (0.0, tn, 0.0)))
    assert abs(got - want) < 1e-10 * abs(want)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batch_cutoff_sits_within_one_percent_above_the_envelope_crossing(k, engine_cutoffs):
    htype_heat_batch(1.0, 1, k, np.array([0.5, 1.0]), np.array([0.0, 0.7]))
    (lam_max,) = engine_cutoffs

    def envelope(lam):
        return lam ** (k - 1) * lam / math.sinh(lam)

    # 1e-16 of s^{-n} at s = n = 1
    assert envelope(lam_max) <= 1e-16 < envelope(lam_max / 1.01)


def test_table_and_radon_shapes_converge_at_the_first_comparison(trapezoid_rules):
    # every k runs on one trapezoid rule, compared once with the rule of
    # twice its step: odd k (an even integrand) in lam from 0, k = 2 (lam
    # Jt_0, odd in lam) in the variable that maps the line onto the half line
    rng = np.random.default_rng(0)
    rho = np.concatenate([[0.1], np.sort(rng.uniform(0.1, 3.0, 62)), [3.0]])
    tau = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 14)), [3.0]])
    for k, nodes in ((1, 325), (2, 501), (3, 389)):
        trapezoid_rules.clear()
        htype_heat_batch(1.0, 1, k, rho[:, None], tau[None, :])
        assert [n for n, _ in trapezoid_rules] == [nodes], k
    # one target, and the 5 x 5 grid of the radon-collapse check
    for v, t in ((np.array([1.1]), np.array([0.7])),
                 (np.linspace(0.4, 2.0, 5), np.linspace(-1.5, 1.5, 5))):
        trapezoid_rules.clear()
        radon_heat_profile(1.0, v, t, n=1, k=2)
        assert len(trapezoid_rules) == 1, (v.size, t.size)
    # the CLI's two |v| at one |t| (`kernel --group htype --k 2`)
    for _ in range(20):
        s, v, t = rng.uniform(0.6, 1.4), rng.uniform(0.1, 2.5, 2), rng.uniform(0.0, 2.5)
        trapezoid_rules.clear()
        htype_heat_batch(s, 1, 2, v, np.full(2, t))
        assert len(trapezoid_rules) == 1, (s, v, t)


def _mp_k2(s, v, t, lam_max):
    """h_s(v, t) at n = 1, k = 2 from 30-digit mpmath: c(1, 2) int_0^lam_max
    lam J_0(lam t) (lam / sinh(s lam)) e^{-lam coth(s lam) v^2 / 4} dlam,
    split at the half periods of J_0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s, v, t = mpmath.mpf(s), mpmath.mpf(v), mpmath.mpf(t)

        def f(lam):
            if lam == 0:
                return mpmath.mpf(0)
            return (lam * mpmath.besselj(0, lam * t) * lam / mpmath.sinh(s * lam)
                    * mpmath.exp(-lam * mpmath.coth(s * lam) * v * v / 4))

        pieces = int(lam_max * t / mpmath.pi) + 1
        return float(mpmath.quad(f, mpmath.linspace(0, lam_max, pieces + 1))
                     / (2 * (2 * mpmath.pi) ** 2))


def test_k2_tables_match_mpmath_in_the_near_and_mid_field():
    # |t| / s = 0.5 and 3 at s = 1, |v| = 0 and 1; the integrand is below
    # 1e-18 of its peak past lam = 50
    v, t = np.array([0.0, 1.0]), np.array([0.5, 3.0])
    table = htype_heat_batch(1.0, 1, 2, v[:, None], t[None, :])
    want = np.array([[_mp_k2(1.0, vv, tt, 50.0) for tt in t] for vv in v])
    assert np.max(np.abs(table - want) / np.abs(want)) <= 1e-8


def test_k2_far_field_point_raises_or_matches_mpmath():
    # 8.4e-11 of h_s(0, 0), where the sums' round-off is 2.4e-4 of the
    # value: a Gauss-panel rule accepted this point 1.4e-7 off at rtol 1e-8.
    # A rule that converges here must match the 40-digit mpmath value, and
    # one that cannot tell must raise
    want = 1.5272810683892881e-21
    try:
        got = htype_heat_batch(100.0, 2, 2, [17.969482135014385], [1033.3127837997654])
    except QuadratureError:
        return
    assert abs(got[0] - want) <= 1e-8 * want


@pytest.mark.parametrize("s,t_max", [(0.05, 0.15), (1.0, 10.0), (5.0, 10.0)])
def test_k2_tables_match_the_pointwise_bessel_integral(s, t_max):
    # the mapped trapezoid rule against QUADPACK on lam Jt_0(lam |t|) times
    # the profile; at s = 0.05 the pointwise route stops on round-off past
    # |t| ~ 0.16
    v = np.array([0.0, 0.5, 1.0, 2.5, 5.0])
    t = np.linspace(-t_max, t_max, 5)
    table = htype_heat_batch(s, 1, 2, v[:, None], np.abs(t)[None, :])
    want = np.array([[htype_heat_kernel(s, HTypePoint((vv, 0.0), (0.6 * tt, 0.8 * tt)))
                      for tt in t] for vv in v])
    assert np.max(np.abs(table - want)) <= 1e-8 * np.max(np.abs(table))


def test_batch_refines_until_two_rules_agree():
    # at |v| = 16 the integrand is a bump of width ~0.2 near lam = 0, which
    # a rule sized by the phase rate alone misses by 4e-7 relative: the
    # trapezoid step shrinks with the row's size e^{-|v|^2 / 4}, so that the
    # rule and the rule of half its step agree, instead of raising
    vn = np.linspace(16.0, 17.0, 4)
    tn = np.linspace(0.0, 1.0, 4)
    got = htype_heat_batch(1.0, 1, 3, vn[:, None], tn[None, :])
    const = 2.0 ** -0.5 / (2.0 * (2.0 * math.pi) ** 2.5)

    def h(rho, tau):
        # k = 3: Jt_{1/2}(w) = 2 sin(w) / (sqrt(pi) w)
        def f(lam):
            return (lam * lam * 2.0 / math.sqrt(math.pi) * np.sinc(lam * tau / math.pi)
                    * lam / math.sinh(lam) * math.exp(-lam / math.tanh(lam) * rho * rho / 4.0))
        return const * quad(f, 1e-300, 60.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    for i, j in np.ndindex(4, 4):
        want = h(vn[i], tn[j])
        assert abs(got[i, j] - want) < 1e-9 * abs(want)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("s,v,t,match", [
    (_NAN, 0.5, 0.5, "diffusion time"),
    (_INF, 0.5, 0.5, "diffusion time"),
    (1.0, _NAN, 0.5, "norms |v|"),
    (1.0, _INF, 0.5, "norms |v|"),
    (1.0, 0.5, _NAN, "norms |t|"),
    (1.0, 0.5, _INF, "norms |t|"),
    (1.0, -0.5, 0.5, "nonnegative"),
    (1.0, 0.5, -0.5, "nonnegative"),
], ids=["s-nan", "s-inf", "v-nan", "v-inf", "t-nan", "t-inf", "v-negative", "t-negative"])
def test_batch_rejects_inputs_outside_its_domain(s, v, t, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        htype_heat_batch(s, 1, 2, np.array([0.2, v]), np.array([0.1, t]))


@pytest.mark.parametrize("v,t", [
    ((_NAN, 0.0), (0.1,)),
    ((0.5, _INF), (0.1,)),
    ((0.5, 0.0), (_NAN,)),
    ((0.5, 0.0), (0.1, _INF)),
], ids=["v-nan", "v-inf", "t-nan", "t-inf"])
def test_pointwise_kernel_rejects_non_finite_coordinates(v, t):
    with pytest.raises(ValueError, match="finite"):
        htype_heat_kernel(1.0, HTypePoint(v, t))


def test_radon_direction_independence():
    # a function radial in t has the same Radon transform along every eta
    def f(p):
        return math.exp(-p.v_norm ** 2 - p.t_norm ** 2)

    pts = [HeisenbergPoint((0.8 + 0.1j,), 0.5), HeisenbergPoint((1.4,), -1.0)]
    r1 = partial_radon(f, (1.0, 0.0), pts)
    r2 = partial_radon(f, (0.0, 1.0), pts)
    r3 = partial_radon(f, (np.sqrt(0.5), np.sqrt(0.5)), pts)
    assert np.max(np.abs(r1 - r2)) < 1e-12 * np.max(np.abs(r1))
    assert np.max(np.abs(r1 - r3)) < 1e-12 * np.max(np.abs(r1))


def test_radon_heat_profile_matches_pointwise_radon_of_the_kernel():
    # at s = 1 both take the same radii; one target keeps the pointwise
    # side to 2 x 52 calls of the quadrature kernel
    fast = radon_heat_profile(1.0, [0.8], [0.4], n=1, k=2)[0, 0]
    slow = partial_radon(lambda p: htype_heat_kernel(1.0, p), (1.0, 0.0),
                         [HeisenbergPoint((0.8,), 0.4)])[0]
    assert abs(fast - slow) < 1e-10 * abs(fast)


def test_radon_collapses_onto_the_heisenberg_kernel():
    # the radon-collapse check's shape, at both k
    v = np.linspace(0.4, 2.0, 5)
    t = np.linspace(-1.5, 1.5, 5)
    for s in (0.3, 1.0, 3.0):
        want = heat_kernel_grid(s, v[:, None], t[None, :]).real
        for k in (2, 3):
            got = radon_heat_profile(s, v, t, n=1, k=k)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(want), (s, k)


@pytest.mark.parametrize("k", [2, 3])
def test_partial_radon_of_a_shifted_gaussian_is_its_closed_form(k):
    # e^{-|v|^2 - |t - c|^2} integrates over eta-perp to
    # pi^{(k-1)/2} e^{-|v|^2 - (t - c.eta)^2}; c is off eta's line, so the
    # Gaussian sits off center in eta-perp, where the angles must resolve it
    eta = {2: np.array([0.6, 0.8]), 3: np.array([0.6, 0.0, 0.8])}[k]
    c = np.array([0.3, -0.5, 0.4])[:k]

    def f(p):
        return math.exp(-p.v_norm ** 2 - float(np.sum((np.array(p.t) - c) ** 2)))

    pts = [HeisenbergPoint((0.7 + 0.2j,), 0.4), HeisenbergPoint((0.3,), -1.1)]
    got = partial_radon(f, eta, pts)
    want = [math.pi ** (0.5 * (k - 1)) * math.exp(-abs(p.z[0]) ** 2 - (p.t - c @ eta) ** 2)
            for p in pts]
    assert np.max(np.abs(got - want) / want) < 1e-12


def test_an_under_resolved_radial_rule_raises(monkeypatch):
    # 13 radii on the s = 1 window, checked against 8: the two disagree
    monkeypatch.setattr(htype, "_RHO_DENSITY", 1.0)
    with pytest.raises(QuadratureError, match="radial nu rule failed to converge"):
        radon_heat_profile(1.0, [0.0, 1.0], [0.0, 0.5], n=1, k=3)


@pytest.mark.parametrize("call", [
    lambda: radon_heat_profile(1.0, [0.5], [0.0, 1e6], k=2),
    lambda: radon_heat_profile(1e-300, [0.5], [1.0], k=3),
    lambda: partial_radon(lambda p: 1.0, (0.0, 1.0), [HeisenbergPoint((0.5,), 1e300)]),
], ids=["wide-t", "tiny-s", "partial"])
def test_a_window_past_the_node_budget_raises_before_building_it(call):
    with pytest.raises(QuadratureError, match="would take"):
        call()


def test_radon_window_warning_does_not_read_round_off():
    # h_0.3 has fallen to ~1e-17 of its peak on the outermost radius, where
    # the batch's round-off reads ~7e-11 of it: below the warning's 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radon_heat_profile(0.3, [0.4], [-1.5], k=2)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_default_nu_window_holds_the_decayed_kernel(s):
    # the half-width t_span + (16 ln 10 / pi) s reaches past the decay of
    # h_s ~ e^{-pi |t| / s} to round-off, so no truncation warning fires
    v = np.array([0.4, 2.0])
    t = np.array([-1.5, 0.0, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = radon_heat_profile(s, v, t, n=1, k=2)
    want = heat_kernel_grid(s, v[:, None], t[None, :]).real
    assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))


def test_radon_with_trivial_center_is_the_identity():
    v = np.array([0.4, 1.0])
    t = np.array([0.3, -0.6])
    got = radon_heat_profile(1.0, v, t, n=1, k=1)
    want = htype_heat_batch(1.0, 1, 1, v[:, None], np.abs(t)[None, :])
    assert np.array_equal(got, want)
    # k = 1 pointwise path feeds t * eta into f
    out = partial_radon(lambda p: p.v_norm ** 2 + p.t[0], (-1.0,),
                        [HeisenbergPoint((0.6 + 0.8j,), 0.5)])
    assert out[0] == pytest.approx(1.0 - 0.5)


def test_radon_edge_cases():
    # 1 / (1 + |t|) is still ~8% of its peak on the window's faces
    def slow(p):
        return 1.0 / (1.0 + p.t_norm)

    assert partial_radon(slow, (1.0, 0.0), []).size == 0
    with pytest.raises(ValueError):
        partial_radon(slow, (0.7, 0.0), [HeisenbergPoint((1.0,), 0.0)])
    with pytest.raises(ValueError):
        partial_radon(slow, (1.0, 0.0, 0.0, 0.0), [HeisenbergPoint((1.0,), 0.0)])
    with pytest.warns(RuntimeWarning, match="not decayed"):
        partial_radon(slow, (1.0, 0.0), [HeisenbergPoint((1.0,), 0.0)])


@pytest.mark.parametrize("k", [2, 3])
def test_radon_heat_profile_rejects_non_finite_t_without_numpy_warnings(k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t_vals must be finite"):
            radon_heat_profile(1.0, [0.5], [0.2, _INF], n=1, k=k)


@pytest.mark.parametrize("s,n,k", [
    (0.0, 1, 2), (-1.0, 1, 2), (_INF, 1, 2), (_NAN, 1, 3),
    (1.0, 0, 2), (1.0, 1.5, 2), (1.0, 1, 0), (1.0, 1, 2.5), (1.0, 1, 4),
], ids=["s-0", "s-negative", "s-inf", "s-nan", "n-0", "n-1.5", "k-0", "k-2.5", "k-4"])
def test_radon_heat_profile_rejects_bad_arguments_without_numpy_warnings(s, n, k):
    # each is refused before anything else, on a full grid and on an empty
    # one alike
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ([0.5, 1.0], []):
            with pytest.raises(ValueError):
                radon_heat_profile(s, v, [0.0, 0.4], n=n, k=k)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("nv,nt", [(0, 3), (2, 0), (0, 0)])
def test_radon_heat_profile_of_an_empty_grid_is_empty(k, nv, nt):
    got = radon_heat_profile(1.0, np.linspace(0.5, 1.0, nv), np.linspace(-1.0, 1.0, nt), k=k)
    assert got.shape == (nv, nt)


def test_gate_matches_the_heisenberg_decision():
    assert htype_gate(1.0, 1.0, 2.0)
    assert not htype_gate(4.0, 1.0, 2.0)     # ab = s0^2 sits outside
    assert not htype_gate(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        htype_gate(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        htype_gate(1.0, 1.0, 0.0)
