"""Sector-Hankel identity, oscillator kernel, decay gates."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from heisenkit import grids, propagator
from heisenkit.grids import SpectralSlice, polar_grid, radial_slice
from heisenkit.hankel import hardy_gate
from heisenkit.heisenberg import heat_kernel_lambda
from heisenkit.hermite import hermite_gate
from heisenkit.htype import htype_gate
from heisenkit.propagator import (
    DecayDomainError,
    ExceptionalLambdaError,
    equality_case_profile,
    gate_lambda_window,
    kernel_K,
    schrodinger_evolve,
    theorem34_gaussian_pair,
    theorem34_pair,
    uniqueness_gate,
)
from heisenkit.quadrature import gauss_panels
from heisenkit.twisted import twisted_convolution


def test_evolution_is_the_complex_time_semigroup():
    """Evolving the q_a slice by eps + i s0 lands on the q_{a+eps+is0} slice,
    at eps > 0 and on the unitary flow eps = 0."""
    grid = polar_grid(1, nr=96, r_max=8.0, nsphere=48)
    a, lam, s0, eps = 1.0, 1.0, 0.7, 0.01
    f = radial_slice(grid, lam, heat_kernel_lambda(a, lam, grid.r))
    u = schrodinger_evolve(f, complex(eps, s0))
    want = heat_kernel_lambda(complex(a + eps, s0), lam, grid.r)
    err = np.max(np.abs(u.values - want[:, None]))
    assert err < 1e-8 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="^zeta must be nonzero"):
        schrodinger_evolve(f, 0.0)
    with pytest.raises(ValueError):
        schrodinger_evolve(radial_slice(grid, 0.0, f.values[:, 0]), complex(eps, s0))
    with pytest.raises(ValueError, match="overflows"):
        schrodinger_evolve(radial_slice(grid, 1e4, np.exp(-grid.r ** 2)),
                           complex(eps, s0))
    nan_values = f.values.copy()
    nan_values[4, 2] = np.nan
    with pytest.raises(ValueError, match=r"values of slice f must be finite, got \(nan\+0j\) at index \(4, 2\)"):
        schrodinger_evolve(SpectralSlice(lam, grid, nan_values), complex(eps, s0))
    grid2 = polar_grid(2, nr=16, r_max=6.0, nsphere=8)
    with pytest.raises(NotImplementedError):
        schrodinger_evolve(radial_slice(grid2, lam, np.exp(-grid2.r ** 2)),
                           complex(eps, s0))
    # eps = 0 is the unitary flow: q_a lands on q_{a+is0} with its L^2 norm kept
    for a, lam, s0 in [(1.0, 1.0, 0.7), (1.0, -2.0, 0.7), (0.5, 1.5, 2.0)]:
        f = radial_slice(grid, lam, heat_kernel_lambda(a, lam, grid.r))
        u = schrodinger_evolve(f, complex(0.0, s0))
        want = heat_kernel_lambda(complex(a, s0), lam, grid.r)
        err = np.max(np.abs(u.values - want[:, None]))
        assert err < 1e-8 * np.max(np.abs(want)), (a, lam, s0)        # measured <= 7.2e-10
        assert abs(u.norm2() - f.norm2()) < 1e-12 * f.norm2(), (a, lam, s0)  # <= 3.3e-15


@pytest.mark.parametrize("lam", [1.0, -1.0, 2.0])
def test_spectral_evolution_matches_the_grid_oracle(lam):
    """A non-radial slice: every angular sector, both signs of lam."""
    grid = polar_grid(1, nr=128, r_max=8.0, nsphere=64)
    z = grid.points()[:, :, 0]
    rr = np.abs(z) ** 2
    f = SpectralSlice(lam, grid, z * np.exp(-rr) + 0.3 * np.conj(z) ** 2
                      * np.exp(-0.8 * rr) + np.exp(-rr))
    zeta = complex(0.3, 0.5)
    u = schrodinger_evolve(f, zeta)
    q = radial_slice(grid, lam, heat_kernel_lambda(zeta, lam, grid.r))
    want = twisted_convolution(f, q).values
    mask = grid.r <= 3.0
    err = np.max(np.abs(u.values[mask] - want[mask])) / np.max(np.abs(want[mask]))
    assert err < 4e-6                   # measured 2.6e-7 to 3.5e-7


@pytest.fixture
def basis_orders(monkeypatch):
    """The orders that `schrodinger_evolve` asks `_laguerre_basis` for."""
    asked = []
    original = propagator._laguerre_basis

    def spy(lam, r, degrees, order):
        asked.append(order)
        return original(lam, r, degrees, order)

    monkeypatch.setattr(propagator, "_laguerre_basis", spy)
    return asked


def test_only_the_live_angular_modes_are_evolved(basis_orders):
    grid = polar_grid(1, nr=96, r_max=8.0, nsphere=64)
    z = grid.points()[:, :, 0]
    gauss = np.exp(-np.abs(z) ** 2)
    zeta = complex(0.3, 0.5)
    slices = {"radial": gauss, "modes 0, +-3": gauss + 0.5 * (z ** 3 + np.conj(z) ** 3) * gauss,
              "mode 5 at 1e-13": gauss + 1e-13 * z ** 5 * gauss}
    out = {}
    for name, values in slices.items():
        out[name] = schrodinger_evolve(SpectralSlice(1.0, grid, values), zeta).values
    # one basis per live |m|: a mode at 1e-13 of the largest is live
    assert basis_orders == [0, 0, 3, 0, 5]
    kept = np.abs(np.fft.fft(out["mode 5 at 1e-13"] - out["radial"], axis=1))
    assert kept[:, 5].max() > 1e-3 * kept.max() > 0


def test_exact_zero_modes_leave_the_evolution_bit_identical(basis_orders, monkeypatch):
    # a radial slice on 64 angles has DFT columns m != 0 that are exactly 0;
    # evolving some of them as well must not move a bit
    grid = polar_grid(1, nr=96, r_max=8.0, nsphere=64)
    f = radial_slice(grid, -1.0, np.exp(-grid.r ** 2) * (1.0 + 0.3j))
    zeta = complex(0.3, 0.5)
    live = schrodinger_evolve(f, zeta).values

    def padded_modes(values):
        m, c = grids.angular_modes(values)
        return np.append(m, [3, -3, 7, -7]), np.hstack([c, np.zeros((c.shape[0], 4))])

    monkeypatch.setattr(propagator, "angular_modes", padded_modes)
    padded = schrodinger_evolve(f, zeta).values
    assert basis_orders == [0, 0, 3, 7]
    assert np.array_equal(live, padded)


@pytest.mark.parametrize("lam", [1.0, -1.0])
@pytest.mark.parametrize("zeta", [0.5, complex(0.0, 0.4)], ids=["0.5", "0.4i"])
@pytest.mark.parametrize("m,na,fine", [(8, 16, 64), (3, 6, 48)])
def test_a_live_nyquist_mode_evolves_as_on_a_finer_circle(m, na, fine, zeta, lam):
    # Re(z^m) e^{-|z|^2} on na = 2m angles lives in the Nyquist bin, which
    # holds cos(m theta): half of it at each of m and -m, each with its own
    # Laguerre shift.  A finer circle resolves both modes, and reading its
    # result at every (fine / na)-th angle must give the coarse result.
    out = []
    for angles in (na, fine):
        grid = polar_grid(1, 96, 8.0, angles)
        z = grid.points()[:, :, 0]
        f = SpectralSlice(lam, grid, (z ** m).real * np.exp(-np.abs(z) ** 2))
        out.append(schrodinger_evolve(f, zeta).values)
    coarse, resolved = out
    err = np.max(np.abs(coarse - resolved[:, ::fine // na])) / np.max(np.abs(resolved))
    assert err < 1e-13                  # measured <= 1.2e-15


def test_truncation_warning_fires_for_a_slice_alive_at_r_max():
    grid = polar_grid(1, nr=64, r_max=6.0, nsphere=16)
    slow = radial_slice(grid, 1.0, np.exp(-0.1 * grid.r ** 2))
    with pytest.warns(RuntimeWarning, match="not decayed at r_max"):
        schrodinger_evolve(slow, complex(0.1, 0.5))


@pytest.mark.parametrize("a,lam,s0", [(800.0, 1.0, 1.0), (1.0, 800.0, 1.0001)])
def test_gaussian_pair_where_sinh_overflows_raises_value_error(a, lam, s0):
    # past |lam a| = 710 the closed-form amplitude lies below double range
    with pytest.raises(ValueError, match="rhs is degenerate"):
        theorem34_gaussian_pair(a, lam, s0)


def test_gaussian_pair_ratio_is_constant():
    lhs, rhs, stats = theorem34_gaussian_pair(1.0, 1.0, 1.0)
    assert stats["rel_std"] < 1e-3
    assert stats["nodes"] == lhs.r.size
    assert abs(stats["c_lambda"]) > 0.1
    # the linking constant does not depend on the radial window
    _, _, again = theorem34_gaussian_pair(1.0, 1.0, 1.0,
                                          r=np.linspace(0.5, 2.0, 31))
    assert abs(again["c_lambda"] - stats["c_lambda"]) < 1e-3 * abs(stats["c_lambda"])
    with pytest.raises(ValueError):
        theorem34_gaussian_pair(-1.0, 1.0, 1.0)


def test_grid_pair_agrees_with_the_closed_pipeline():
    """Same linking constant from sampled data as from the analytic twin."""
    lam, s0 = 1.0, 0.7
    _, _, closed = theorem34_gaussian_pair(1.0, lam, s0)
    grid = polar_grid(1, nr=96, r_max=6.0, nsphere=48)
    t_nodes, t_w = gauss_panels(-5.5, 5.5, 10, 12)
    vals = (np.exp(-grid.r ** 2)[:, None, None]
            * np.ones(grid.omega.shape[0])[None, :, None]
            * np.exp(-t_nodes ** 2)[None, None, :]).astype(complex)
    _, _, stats = theorem34_pair(vals, t_nodes, 0, 0, 1, lam, s0, grid, t_weights=t_w)
    assert stats["rel_std"] < 1e-12                                     # measured 6.8e-16
    assert abs(stats["c_lambda"] / closed["c_lambda"] - 1.0) < 1e-12    # measured 1.5e-16


def test_kernel_series_matches_closed_form():
    for p0, q0 in [(0, 0), (1, 0), (0, 1)]:
        series, closed = kernel_K(1.3, 0.7, 1.0, 1.0, 1, p0, q0)
        assert abs(series - closed) < 1e-13 * abs(closed), (p0, q0)    # measured <= 1.1e-15


def _assert_unit_circle_draws_match(sign):
    rng = np.random.default_rng(5)
    for i in range(120):
        p0, q0 = ((0, 0), (1, 0), (0, 1))[i % 3]
        lam = rng.uniform(0.5, 1.5)
        s0 = rng.uniform(0.8, 2.3) / lam
        r, t = rng.uniform(0.3, 1.8), rng.uniform(0.3, 1.8)
        series, closed = kernel_K(sign * lam, r, t, s0, 1, p0, q0)
        m = 1 + p0 + q0
        scale = max(abs(2.0 * math.sin(lam * s0)) ** -m / math.gamma(m), abs(closed))
        assert abs(series - closed) < 1e-13 * scale, (sign * lam, r, t, s0, p0, q0)


def test_kernel_series_on_the_unit_circle_matches_closed_form():
    # w = e^{-2i lam s0} itself, with lam s0 in [0.8, 2.3]; on 600 such draws
    # the error reads a median 1.1e-15 and at most 1.3e-14 of the scale
    # |2 sin(lam s0)|^-m / Gamma(m), against 5.7e-13 and 1.3e-12 when damped
    _assert_unit_circle_draws_match(1.0)


def test_kernel_series_at_negative_lam_starts_the_sector_at_q0():
    # the same draws at -lam: the closed form swaps p0 and q0, and so must
    # the series' phase; at most 1.1e-14 of the scale, against 80 of the 120
    # draws off by up to 2x the scale when the phase keeps p0
    _assert_unit_circle_draws_match(-1.0)


@pytest.mark.parametrize("args", [
    (1.854, 2.299, 2.032, 1.626, 1, 0, 0), (1.91, 1.437, 1.555, 1.606, 1, 0, 1),
    (1.8965216523678694, 0.33163726317754816, 0.2101243145006766, 1.611193166028319, 1, 0, 0),
    (1.7134886748129297, 1.8594072534595198, 0.3994583253753048, 1.7233216439480534, 1, 0, 1),
    (1.0, 0.7, 1.0, math.pi - 0.03, 1, 0, 0), (1.0, 0.7, 1.0, math.pi - 0.1, 1, 0, 0)])
def test_kernel_series_that_has_not_settled_raises(args):
    # the best resummed tails are 7.5%, 66%, 7.8e-8 and 3.7e-8 off the
    # closed form; the last two are past the 1e-8 that the series promises,
    # with best resummation gaps of only 2.3e-9 and 9.6e-9 of the sum.  The
    # last two points lie past the 0.04 rim gap, where the closed form is finite
    match = (r"^lam = [\d.]+ is too near an exceptional frequency for s0 = [\d.]+: the Laguerre "
             r"series has not settled at \|sin\(\|lam\| s0\)\| = 0\.\d+$")
    with pytest.raises(ExceptionalLambdaError, match=match):
        kernel_K(*args)


def test_kernel_is_even_in_lam_for_balanced_sectors():
    plus = kernel_K(1.3, 0.7, 1.0, 1.0, 1, 0, 0)
    minus = kernel_K(-1.3, 0.7, 1.0, 1.0, 1, 0, 0)
    assert plus == minus


def test_kernel_rejects_a_nan_radius():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            kernel_K(1.0, math.nan, 1.0, 1.0, 1, 0, 0)


def test_exceptional_frequencies_are_rejected():
    with pytest.raises(ExceptionalLambdaError):
        kernel_K(math.pi, 0.7, 1.0, 1.0, 1, 0, 0)
    with pytest.raises(ExceptionalLambdaError):
        theorem34_gaussian_pair(1.0, 2.0 * math.pi, 0.5)
    with pytest.raises(ExceptionalLambdaError):
        theorem34_gaussian_pair(1.0, math.pi + 1e-9, 1.0)


@pytest.mark.parametrize("d", [1e-3, 1e-2, 2e-2])
def test_kernel_near_an_exceptional_frequency_says_so(d):
    # |sin(lam s0)| above 1e-6 but below 0.02 puts w = e^{-2i|lam|s0} within
    # 0.04 of 1, where the series' tail resummation does not go
    match = (r"^lam = 1\.0 is too near an exceptional frequency for s0 = 3\.1\d+: the Laguerre "
             r"series needs \|sin\(\|lam\| s0\)\| >= 0\.02, got 0\.0\d+$")
    with pytest.raises(ExceptionalLambdaError, match=match):
        kernel_K(1.0, 0.7, 1.0, math.pi - d, 1, 0, 0)


def test_hermite_gate_where_two_s0_overflows():
    # 2 s0 is inf past 9e307; there sin 2s0 = 2 sin s0 cos s0 gives the margin
    mpmath = pytest.importorskip("mpmath")
    for s0 in (1e308, -1e308, 1.7976931348623157e308):
        with mpmath.workdps(400):
            sine = mpmath.sin(2 * mpmath.mpf(s0))
            want = float(sine * sine - mpmath.mpf(0.25))
        margin, ok = hermite_gate(1.0, 1.0, s0)
        assert margin == pytest.approx(want, abs=1e-15)
        assert ok is (want > 0)
    # below that, sin(2 s0) as before
    assert hermite_gate(1.0, 1.0, 8e307)[0] == math.sin(1.6e308) ** 2 - 0.25


def test_gate_margin_limits_and_monotonicity():
    # lam = 0 closed form: margin = s0^2 / (4ab) - 1/4
    margin, super_ = uniqueness_gate(1.0, 1.0, 1.1)
    assert margin == pytest.approx(1.1 ** 2 / 4.0 - 0.25, rel=1e-12)
    assert super_
    margin0, _ = uniqueness_gate(1.0, 1.0, 1.0)
    assert margin0 == pytest.approx(0.0, abs=1e-12)
    # continuity at the lam -> 0 limit
    near, _ = uniqueness_gate(1.0, 1.0, 1.1, lam=1e-9)
    assert near == pytest.approx(margin, abs=1e-12)
    # eps enters as a + eps, b + eps
    shifted, _ = uniqueness_gate(1.0, 1.0, 1.1, eps=0.1)
    assert shifted == pytest.approx(1.1 ** 2 / (4.0 * 1.1 ** 2) - 0.25, rel=1e-12)
    # the oscillation factor decays in lam
    lo, _ = uniqueness_gate(0.5, 0.5, 1.0, lam=0.5)
    hi, _ = uniqueness_gate(0.5, 0.5, 1.0, lam=1.0)
    assert lo > hi


def test_gate_lambda_window_bracket():
    a = b = 0.3
    s0 = 0.7
    delta = gate_lambda_window(a, b, s0)
    assert delta is not None and 0 < delta < math.pi / s0
    inside, _ = uniqueness_gate(a, b, s0, lam=0.999 * delta)
    outside, _ = uniqueness_gate(a, b, s0, lam=1.001 * delta)
    assert inside > 0 >= outside
    # ab >= s0^2 never opens a window
    assert gate_lambda_window(1.0, 1.0, 0.5) is None


def test_gate_params_validation():
    for bad in [dict(a=0.0, b=1.0, s0=1.0), dict(a=1.0, b=-1.0, s0=1.0),
                dict(a=1.0, b=1.0, s0=0.0), dict(a=1.0, b=1.0, s0=1.0, eps=-0.1),
                dict(a=1.0, b=1.0, s0=1.0, lam=-0.5)]:
        with pytest.raises(ValueError):
            uniqueness_gate(**bad)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("gate,args", [
    (gate_lambda_window, (_NAN, 1.0, 1.0)),
    (gate_lambda_window, (1.0, 1.0, _INF)),
    (uniqueness_gate, (1.0, 1.0, _INF)),
    (uniqueness_gate, (1.0, _INF, 1.0)),
    (uniqueness_gate, (1.0, 1.0, 1.0, _INF)),
    (uniqueness_gate, (1.0, 1.0, 1.0, 0.0, _NAN)),
    (hardy_gate, (_NAN, 1.0)),
    (hardy_gate, (1.0, _INF)),
    (htype_gate, (_NAN, 1.0, 1.0)),
    (htype_gate, (1.0, 1.0, _NAN)),
    (hermite_gate, (_NAN, 1.0, 1.0)),
    (hermite_gate, (1.0, 1.0, _INF)),
], ids=["window-a-nan", "window-s0-inf", "params-s0-inf", "params-b-inf", "params-eps-inf",
        "params-lam-nan", "hardy-a-nan", "hardy-b-inf", "htype-a-nan", "htype-s0-nan",
        "hermite-a-nan", "hermite-s0-inf"])
def test_gates_reject_non_finite_rates_and_times(gate, args):
    with pytest.raises(ValueError, match="must be"):
        gate(*args)


def _plus_ulps(x, steps):
    """x moved by steps[i] ulp, |steps| <= 3."""
    for _ in range(3):
        x = np.where(steps > 0, np.nextafter(x, np.inf),
                     np.where(steps < 0, np.nextafter(x, 0), x))
        steps = steps - np.sign(steps)
    return x


def _heisenberg_verdicts(a, b, s0):
    """The boolean gates on one point, and hardy_gate on its Hardy pair.
    htype_gate is uniqueness_gate at lam = 0, which test_engine_boundary pins."""
    window = gate_lambda_window(a, b, s0) is not None
    hardy = hardy_gate(1.0 / (4.0 * a), s0 * s0 / b) == "supercritical"
    return uniqueness_gate(a, b, s0)[1], window, hardy


def _expected(ratio):
    """The Hardy rule's verdict on an exact ratio 4P, or None within 1e-10 of
    its 4e-9 band's edge, where rounding in the logs may tip it."""
    gap = abs(float(ratio - 1))
    if abs(gap - 4e-9) < 1e-10:
        return None
    if gap < 4e-9:
        return "critical"
    return "supercritical" if ratio > 1 else "subcritical"


def test_gates_agree_within_three_ulp_of_the_boundary():
    # b = s0^2/a moved by up to 3 ulp, where a gate that rounds its own margin
    # or product splits from the others (4322 of these draws did)
    rng = np.random.default_rng(1)
    a, s0 = rng.uniform(0.05, 5.0, 10_000), rng.uniform(0.1, 3.0, 10_000)
    b = _plus_ulps(s0 * s0 / a, rng.integers(-3, 4, 10_000))
    split = [p for p in zip(a.tolist(), b.tolist(), s0.tolist())
             if len(set(_heisenberg_verdicts(*p))) > 1]
    assert not split, (len(split), split[:3])


def test_every_verdict_outside_the_critical_band_is_exact():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2)
    a, s0 = 10.0 ** rng.uniform(-3.0, 3.0, 2000), 10.0 ** rng.uniform(-2.0, 2.0, 2000)
    rel = rng.choice((-1.0, 1.0), 2000) * 10.0 ** rng.uniform(-17.0, -5.0, 2000)
    b = s0 * s0 / a * (1.0 + rel)
    wrong = []
    for ai, bi, si in zip(a.tolist(), b.tolist(), s0.tolist()):
        # the boolean gates on the point; hardy_gate on its own rounded pair
        want = _expected(Fraction(si) ** 2 / (Fraction(ai) * Fraction(bi)))
        booleans = _heisenberg_verdicts(ai, bi, si)[:2]
        if want is not None and booleans != (want == "supercritical",) * 2:
            wrong.append((ai, bi, si))
        x, y = 1.0 / (4.0 * ai), si * si / bi
        hardy = _expected(4 * Fraction(x) * Fraction(y))
        if hardy is not None and hardy_gate(x, y) != hardy:
            wrong.append((x, y))
    # the Hermite product holds a sine: 50 digits stand in for the exact value
    s0 = rng.uniform(0.05, 1.5, 2000)
    b = 0.25 / (a * np.sin(2.0 * s0) ** 2) * (1.0 + rel)
    for ai, bi, si in zip(a.tolist(), b.tolist(), s0.tolist()):
        with mpmath.workdps(50):
            want = _expected(4 * mpmath.mpf(ai) * bi * mpmath.sin(2 * mpmath.mpf(si)) ** 2)
        if want is not None and hermite_gate(ai, bi, si)[1] != (want == "supercritical"):
            wrong.append((ai, bi, si, "hermite"))
    assert not wrong, (len(wrong), wrong[:3])


def test_gates_decide_extreme_rates_without_overflow():
    # 1 / (4 a) overflows the margin to inf here; the product is 2.5e-11 of 1/4
    assert uniqueness_gate(1e-310, 1e300, 1e-10)[1] is False
    # where the margin's own formula leaves double range (s0 ** 2 raises; inf
    # times a product that underflows), P - 1/4 comes from the log sum of P
    margin, ok = uniqueness_gate(1e200, 1e200, 1e199)
    assert ok is False and margin == pytest.approx(2.5e-3 - 0.25, rel=1e-12)
    margin, ok = uniqueness_gate(1e-310, 1e308, 1e-5)
    assert ok is False and margin == pytest.approx(2.5e-9 - 0.25, rel=1e-12)
    margin, ok = hermite_gate(1e300, 1e300, 1e-200)
    assert ok is True and margin == pytest.approx(4e200, rel=1e-12)
    # P itself past double range: an infinite margin, not a raise
    assert uniqueness_gate(1e-300, 1e-300, 1e10) == (math.inf, True)
    assert htype_gate(1e-310, 1e308, 1e-5) is False
    assert htype_gate(1e200, 1e200, 1e199) is False
    assert htype_gate(1e-200, 1e-200, 1e-150) is True
    assert hardy_gate(1e200, 1e200) == "supercritical"
    assert hermite_gate(1e300, 1e300, 1e-200)[1] is True
    # lam s0 underflows to 0: the lam -> 0 limit, not a division by zero
    assert uniqueness_gate(1.0, 1.0, 1e-200, 0.0, 1e-200) == uniqueness_gate(1.0, 1.0, 1e-200)


def test_equality_case_satisfies_the_sharp_relation():
    f_slice, b_fit, residual = equality_case_profile(1.0, 1.0, 1.0)
    assert residual < 1e-8                                              # measured 1.7e-10
    # tanh(a lam) tanh(b lam) = sin^2(lam s0) pins b
    want_b = math.atanh(math.sin(1.0) ** 2 / math.tanh(1.0))
    assert b_fit == pytest.approx(want_b, rel=1e-7)                     # measured 1.0e-9
    assert f_slice.lam == 1.0
    with pytest.raises(ValueError):
        equality_case_profile(1.0, 0.0, 1.0)
    with pytest.raises(ExceptionalLambdaError):
        equality_case_profile(1.0, math.pi, 1.0)
    assert issubclass(DecayDomainError, ValueError)
