"""Hankel transform against closed forms and an adaptive-quad oracle."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from heisenkit import hankel, specfun
from heisenkit._checks import NonFiniteResult
from heisenkit.grids import RadialProfile
from heisenkit.hankel import (
    DegenerateFitError,
    HankelPlan,
    fit_gaussian_decay,
    hankel_plan,
    hankel_transform,
    hardy_gate,
)


def gaussian_exact(alpha, a, s):
    # H_alpha(e^{-a r^2})(s) = (2a)^{-(alpha+1)} e^{-s^2/(4a)}
    return (2.0 * a) ** (-(alpha + 1.0)) * np.exp(-(s ** 2) / (4.0 * a))


def test_gaussian_pair_across_orders_and_rates():
    s = np.linspace(0.0, 5.0, 41)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        plan = hankel_plan(alpha, r_max=9.0, s_max=5.0)
        for a in (0.5, 1.0, 2.0):
            got = hankel_transform(plan, np.exp(-a * plan.r_nodes ** 2), s)
            want = gaussian_exact(alpha, a, s)
            rel = np.max(np.abs(got.values - want) / np.abs(want))
            assert rel < 1e-7, (alpha, a, rel)


def test_gaussian_pair_complex_rate():
    """The closed form continues to Re(c) > 0."""
    c = 1.0 + 0.5j
    plan = hankel_plan(0.0, r_max=9.0, s_max=4.0)
    s = np.linspace(0.0, 4.0, 17)
    got = hankel_transform(plan, np.exp(-c * plan.r_nodes ** 2), s)
    want = np.exp(-(s ** 2) / (4.0 * c)) / (2.0 * c)
    assert np.max(np.abs(got.values - want) / np.abs(want)) < 1e-8


def test_transform_at_the_origin_needs_no_special_case():
    # kernel limit at s = 0 is 1 / (2^alpha Gamma(alpha + 1))
    plan = hankel_plan(1.5, r_max=9.0, s_max=3.0)
    got = hankel_transform(plan, np.exp(-plan.r_nodes ** 2), np.array([0.0]))
    assert got.values[0] == pytest.approx(gaussian_exact(1.5, 1.0, 0.0),
                                          rel=1e-9)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_lattice_kernels_never_call_hyp0f1(alpha, monkeypatch):
    # the kernel tables' shape: on the lattice below order 9 every kernel
    # entry comes from the seeds, the recurrence and the power series, and
    # hyp0f1 (150-300 ns a point) is never reached
    def refuse(order, w):
        raise AssertionError(f"hyp0f1 called at order {order} on {np.size(w)} points")
    monkeypatch.setattr(specfun, "_jtilde_series", refuse)
    plan = hankel_plan(alpha, r_max=9.0, s_max=5.0)
    s = np.concatenate([[0.0], np.sort(np.random.default_rng(0).uniform(0.0, 5.0, 298)), [5.0]])
    got = hankel_transform(plan, np.exp(-plan.r_nodes ** 2), s)
    assert np.max(np.abs(got.values - gaussian_exact(alpha, 1.0, s))) < 1e-14


def test_against_adaptive_quad_oracle():
    # same integral, independent quadrature and independent Bessel
    alpha = 1.0
    plan = hankel_plan(alpha, r_max=10.0, s_max=3.0)
    F = plan.r_nodes ** 2 * np.exp(-plan.r_nodes ** 2)
    got = hankel_transform(plan, F, np.array([0.7, 2.4]))
    for s_val, g in zip((0.7, 2.4), got.values):
        want, err = quad(
            lambda r: r ** 2 * np.exp(-r ** 2) * jv(alpha, r * s_val)
            / (r * s_val) ** alpha * r ** (2 * alpha + 1),
            0.0, 10.0, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert err < 1e-10
        assert abs(g - want) < 1e-9


def test_double_transform_returns_the_profile():
    """The transform is an involution; run it twice through two plans."""
    alpha = 0.5
    a = 1.0
    plan1 = hankel_plan(alpha, r_max=9.0, s_max=13.0)
    plan2 = hankel_plan(alpha, r_max=13.0, s_max=4.0)
    first = hankel_transform(plan1, np.exp(-a * plan1.r_nodes ** 2),
                             plan2.r_nodes)
    second = hankel_transform(plan2, first.values, np.linspace(0.0, 3.0, 7))
    want = np.exp(-a * np.linspace(0.0, 3.0, 7) ** 2)
    assert np.max(np.abs(second.values - want)) < 1e-7


def _direct_sum(plan, F, s):
    r, alpha = plan.r_nodes, plan.alpha
    kernel = 2.0 ** (-alpha) * specfun.bessel_j_tilde(alpha, np.outer(r, s))
    return (plan.r_weights * r ** (2 * alpha + 1) * F) @ kernel


def _kernel_tables_grid(s_hi, size):
    return np.concatenate([[0.0], np.sort(np.random.default_rng(3).uniform(0.0, s_hi, size - 2)),
                           [s_hi]])


def test_chebyshev_size_resolves_the_widest_kernel():
    # Jt_{-1/2}(B x) = cos(B x) / sqrt(pi) has Chebyshev coefficients 2 |J_k(B)|,
    # the largest of any order relative to the peak: its tail past 2M stays
    # below 1e-16, and its interpolant on [0, 1] is off by the round-off of
    # cos(B x) itself, about eps B
    x = np.linspace(0.0, 1.0, 1001)
    for band in np.concatenate([np.geomspace(1e-3, 1.0, 4), np.linspace(1.0, 200.0, 34)]):
        m = hankel._chebyshev_size(band)
        ks = np.arange(2 * m, 2 * m + 200)
        assert 4.0 * np.sum(np.abs(jv(ks, band))) < 1e-16, band
        nodes, weights = hankel._chebyshev_points(m)
        got = hankel._even_interpolation(x, nodes, weights) @ np.cos(band * nodes)
        assert np.max(np.abs(got - np.cos(band * x))) < 2e-16 * (4.0 + band), band


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 0.3])
@pytest.mark.parametrize("profile", ["outermost", "complex"])
def test_interpolated_route_matches_the_direct_sum(alpha, profile):
    # worst cases for the interpolant: all mass at r_max, whose kernel has the
    # widest band, and random complex values; neither decays, so both warn.
    # alpha = 0.3 is off the lattice and takes hyp0f1
    plan = hankel_plan(alpha, r_max=9.0, s_max=5.0)
    if profile == "outermost":
        F = np.zeros(plan.r_nodes.size)
        F[-1] = 1.0
    else:
        F = [1.0, 1.0j] @ np.random.default_rng(7).normal(size=(2, plan.r_nodes.size))
    m = hankel._chebyshev_size(9.0 * 4.0)
    nodes = hankel._chebyshev_points(m)[0]
    grids = (_kernel_tables_grid(5.0, 300),            # s = 0 and S = 300 > 4M
             # every Chebyshev point of [0, 4] exactly: s / 4 is the node
             np.unique(np.concatenate([4.0 * nodes, _kernel_tables_grid(4.0, 4 * m + 2)])),
             _kernel_tables_grid(4.0, 4 * m + 1),      # just past the switch
             _kernel_tables_grid(4.0, 4 * m),          # the direct sum
             np.array([2.0]))                          # a single point
    for s in grids:
        with pytest.warns(RuntimeWarning, match="not decayed"):
            got = hankel_transform(plan, F, s).values
        want = _direct_sum(plan, F, s)
        if s.size > 4 * hankel._chebyshev_size(9.0 * s[-1]):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), s.size
        else:
            assert np.array_equal(got, want), s.size


@pytest.mark.parametrize("size, points", [(300, 240 * 45), (41, 240 * 41)])
def test_bessel_values_per_transform(size, points, monkeypatch):
    # the kernel tables' 240 x 300 transform takes 240 M Bessel values, M = 45
    # at r_max s_hi = 45; verify's 41-point grid stays on its own points
    seen = []
    def counting(alpha, w):
        seen.append(np.size(w))
        return specfun.bessel_j_tilde(alpha, w)
    monkeypatch.setattr(hankel, "bessel_j_tilde", counting)
    plan = hankel_plan(2.0, r_max=9.0, s_max=5.0)
    hankel_transform(plan, np.exp(-plan.r_nodes ** 2), _kernel_tables_grid(5.0, size))
    assert plan.r_nodes.size == 240 and hankel._chebyshev_size(9.0 * 5.0) == 45
    assert seen == [points]


def test_plan_validation():
    with pytest.raises(ValueError):
        hankel_plan(-0.5)
    nodes = np.array([1.0, 2.0, 3.0])
    weights = np.ones(3)
    with pytest.raises(ValueError):
        HankelPlan(0.0, nodes[::-1], weights)
    with pytest.raises(ValueError):
        HankelPlan(0.0, nodes, -weights)
    with pytest.raises(ValueError):
        HankelPlan(0.0, nodes, weights[:2])


def test_profile_must_match_the_plan():
    plan = hankel_plan(0.0, r_max=5.0, s_max=2.0)
    with pytest.raises(ValueError):
        hankel_transform(plan, np.ones(7), np.array([1.0]))
    other = RadialProfile(np.linspace(0.1, 5.0, plan.r_nodes.size),
                          np.ones(plan.r_nodes.size))
    with pytest.raises(ValueError, match="^radii of F must be the plan's nodes to 1e-12, got "):
        hankel_transform(plan, other, np.array([1.0]))


@pytest.mark.parametrize("s, index", [([1e308], 0), ([0.0, 1e307], 1)])
def test_a_transform_past_double_range_raises(s, index):
    # r s overflows at 9e308, and J_0 has no finite value at 9e307: both used to
    # read NaN with only numpy's warnings, which the test settings make errors
    plan = hankel_plan(0.0, r_max=9.0, s_max=5.0)
    match = rf"^the transform on s_grid must be finite, got nan at index \({index},\)$"
    with pytest.raises(NonFiniteResult, match=match):
        hankel_transform(plan, np.exp(-plan.r_nodes ** 2), s)


def test_truncation_warning_fires_for_slow_decay():
    plan = hankel_plan(0.0, r_max=4.0, s_max=2.0)
    with pytest.warns(RuntimeWarning, match="not decayed"):
        hankel_transform(plan, np.exp(-0.1 * plan.r_nodes ** 2),
                         np.array([1.0]))


@pytest.mark.parametrize("alpha", [0.0, 2.0, 4.0])
def test_truncation_warning_reads_the_integrand(alpha):
    # F(9) = 5e-13 F(0) is under the 1e-12 threshold, but the integrand
    # F r^{2 alpha + 1} is not: the transform is 5.0e-13, 2.2e-10 and
    # 1.55e-8 of its peak off the closed form at alpha = 0, 2, 4
    a = -np.log(5e-13) / 81.0
    plan = hankel_plan(alpha, r_max=9.0, s_max=5.0)
    with pytest.warns(RuntimeWarning, match="not decayed"):
        hankel_transform(plan, np.exp(-a * plan.r_nodes ** 2), np.array([0.0]))


def test_fit_recovers_a_pure_gaussian():
    r = np.linspace(0.05, 6.0, 240)
    fit = fit_gaussian_decay(RadialProfile(r, 3.0 * np.exp(-1.7 * r ** 2)))
    assert fit.a == pytest.approx(1.7, abs=1e-10)
    assert fit.C == pytest.approx(3.0, rel=1e-9)
    assert fit.residual < 1e-10


def test_fit_window_controls_polynomial_contamination():
    # r^4 e^{-2 r^2}: the log-r term biases the rate low, less so far out
    r = np.linspace(0.05, 6.0, 480)
    prof = RadialProfile(r, r ** 4 * np.exp(-2.0 * r ** 2))
    far = fit_gaussian_decay(prof, window=(3.0, 6.0))
    near = fit_gaussian_decay(prof, window=(0.5, 2.0))
    assert 1.85 < far.a < 2.0
    assert abs(far.a - 2.0) < abs(near.a - 2.0)
    assert far.window == (3.0, 6.0)


def test_fit_degenerate_cases():
    r = np.linspace(0.05, 6.0, 240)
    prof = RadialProfile(r, np.exp(-r ** 2))
    with pytest.raises(DegenerateFitError):
        fit_gaussian_decay(prof, window=(5.9, 6.0))   # too few nodes
    with pytest.raises(DegenerateFitError):
        fit_gaussian_decay(RadialProfile(r, np.exp(r ** 2)))  # growing
    with pytest.raises(ValueError):
        fit_gaussian_decay(prof, window=(4.0, 3.0))


def test_hardy_gate_classification():
    assert hardy_gate(1.0, 1.0) == "supercritical"
    assert hardy_gate(0.5, 0.5) == "critical"
    assert hardy_gate(0.4, 0.4) == "subcritical"
    assert hardy_gate(1.0, 0.25 + 1e-10) == "critical"
    assert hardy_gate(1.0, 0.25 + 1e-7) == "supercritical"
    with pytest.raises(ValueError):
        hardy_gate(0.0, 1.0)
    with pytest.raises(ValueError):
        hardy_gate(1.0, -2.0)
