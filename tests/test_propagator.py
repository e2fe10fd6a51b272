"""Sector-Hankel identity, oscillator kernel, decay gates."""

import math
import warnings

import numpy as np
import pytest

from heisenkit import grids, propagator
from heisenkit.grids import SpectralSlice, polar_grid, radial_slice
from heisenkit.hankel import hardy_gate
from heisenkit.heisenberg import ComplexTime, heat_kernel_lambda
from heisenkit.hermite import hermite_gate
from heisenkit.htype import htype_gate
from heisenkit.propagator import (
    DecayDomainError,
    ExceptionalLambdaError,
    GateParams,
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
    f = radial_slice(grid, lam, heat_kernel_lambda(ComplexTime(a), lam, grid.r))
    u = schrodinger_evolve(f, ComplexTime(eps, s0))
    want = heat_kernel_lambda(ComplexTime(a + eps, s0), lam, grid.r)
    err = np.max(np.abs(u.values - want[:, None]))
    assert err < 1e-8 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="zero diffusion time"):
        ComplexTime(0.0, 0.0)
    with pytest.raises(ValueError):
        schrodinger_evolve(radial_slice(grid, 0.0, f.values[:, 0]), ComplexTime(eps, s0))
    with pytest.raises(ValueError, match="overflows"):
        schrodinger_evolve(radial_slice(grid, 1e4, np.exp(-grid.r ** 2)),
                           ComplexTime(eps, s0))
    nan_values = f.values.copy()
    nan_values[4, 2] = np.nan
    with pytest.raises(ValueError, match=r"values of slice f must be finite, got \(nan\+0j\) at index \(4, 2\)"):
        schrodinger_evolve(SpectralSlice(lam, grid, nan_values), ComplexTime(eps, s0))
    grid2 = polar_grid(2, nr=16, r_max=6.0, nsphere=8)
    with pytest.raises(NotImplementedError):
        schrodinger_evolve(radial_slice(grid2, lam, np.exp(-grid2.r ** 2)),
                           ComplexTime(eps, s0))
    # eps = 0 is the unitary flow: q_a lands on q_{a+is0} with its L^2 norm kept
    for a, lam, s0 in [(1.0, 1.0, 0.7), (1.0, -2.0, 0.7), (0.5, 1.5, 2.0)]:
        f = radial_slice(grid, lam, heat_kernel_lambda(ComplexTime(a), lam, grid.r))
        u = schrodinger_evolve(f, ComplexTime(0.0, s0))
        want = heat_kernel_lambda(ComplexTime(a, s0), lam, grid.r)
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
    zeta = ComplexTime(0.3, 0.5)
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
    zeta = ComplexTime(0.3, 0.5)
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
    zeta = ComplexTime(0.3, 0.5)
    live = schrodinger_evolve(f, zeta).values
    extra = np.isin(np.abs(np.fft.fftfreq(64, 1.0 / 64)), (3, 7))
    monkeypatch.setattr(propagator, "live_modes", lambda spec: grids.live_modes(spec) | extra)
    padded = schrodinger_evolve(f, zeta).values
    assert basis_orders == [0, 0, 3, 7]
    assert np.array_equal(live, padded)


def test_truncation_warning_fires_for_a_slice_alive_at_r_max():
    grid = polar_grid(1, nr=64, r_max=6.0, nsphere=16)
    slow = radial_slice(grid, 1.0, np.exp(-0.1 * grid.r ** 2))
    with pytest.warns(RuntimeWarning, match="not decayed at r_max"):
        schrodinger_evolve(slow, ComplexTime(0.1, 0.5))


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
        assert abs(series - closed) < 1e-10 * abs(closed), (p0, q0)    # measured <= 7.9e-13


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


def test_gate_margin_limits_and_monotonicity():
    # lam = 0 closed form: margin = s0^2 / (4ab) - 1/4
    margin, super_ = uniqueness_gate(GateParams(1.0, 1.0, 1.1))
    assert margin == pytest.approx(1.1 ** 2 / 4.0 - 0.25, rel=1e-12)
    assert super_
    margin0, _ = uniqueness_gate(GateParams(1.0, 1.0, 1.0))
    assert margin0 == pytest.approx(0.0, abs=1e-12)
    # continuity at the lam -> 0 limit
    near, _ = uniqueness_gate(GateParams(1.0, 1.0, 1.1, lam=1e-9))
    assert near == pytest.approx(margin, abs=1e-12)
    # eps enters as a + eps, b + eps
    shifted, _ = uniqueness_gate(GateParams(1.0, 1.0, 1.1, eps=0.1))
    assert shifted == pytest.approx(1.1 ** 2 / (4.0 * 1.1 ** 2) - 0.25, rel=1e-12)
    # the oscillation factor decays in lam
    lo, _ = uniqueness_gate(GateParams(0.5, 0.5, 1.0, lam=0.5))
    hi, _ = uniqueness_gate(GateParams(0.5, 0.5, 1.0, lam=1.0))
    assert lo > hi


def test_gate_lambda_window_bracket():
    a = b = 0.3
    s0 = 0.7
    delta = gate_lambda_window(a, b, s0)
    assert delta is not None and 0 < delta < math.pi / s0
    inside, _ = uniqueness_gate(GateParams(a, b, s0, lam=0.999 * delta))
    outside, _ = uniqueness_gate(GateParams(a, b, s0, lam=1.001 * delta))
    assert inside > 0 >= outside
    # ab >= s0^2 never opens a window
    assert gate_lambda_window(1.0, 1.0, 0.5) is None


def test_gate_params_validation():
    for bad in [dict(a=0.0, b=1.0, s0=1.0), dict(a=1.0, b=-1.0, s0=1.0),
                dict(a=1.0, b=1.0, s0=0.0), dict(a=1.0, b=1.0, s0=1.0, eps=-0.1),
                dict(a=1.0, b=1.0, s0=1.0, lam=-0.5)]:
        with pytest.raises(ValueError):
            GateParams(**bad)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("gate,args", [
    (gate_lambda_window, (_NAN, 1.0, 1.0)),
    (gate_lambda_window, (1.0, 1.0, _INF)),
    (GateParams, (1.0, 1.0, _INF)),
    (GateParams, (1.0, _INF, 1.0)),
    (GateParams, (1.0, 1.0, 1.0, _INF)),
    (GateParams, (1.0, 1.0, 1.0, 0.0, _NAN)),
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
