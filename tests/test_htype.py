"""H-type heat kernel, its Radon collapse, and the inherited gate."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from heisenkit.heisenberg import HeisenbergPoint, heat_kernel, heat_kernel_grid
from heisenkit.htype import (
    HTypeHeatKernel,
    HTypePoint,
    htype_gate,
    htype_heat_batch,
    htype_heat_kernel,
    partial_radon,
    radon_heat_profile,
)


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
    kern = HTypeHeatKernel(0.8, 1, 2)
    p = HTypePoint((0.5, 0.5), (0.2, 0.1))
    assert kern(p) == pytest.approx(htype_heat_kernel(0.8, p), rel=1e-13)
    with pytest.raises(ValueError):
        kern(HTypePoint((0.5, 0.5), (0.2,)))
    with pytest.raises(ValueError):
        htype_heat_kernel(-1.0, p)


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


def test_batch_refines_until_two_rules_agree():
    # at |v| = 16 the integrand is a bump of width ~0.2 near lam = 0, which
    # the first panel rule misses by 4e-7 relative: the batch must go on
    # refining instead of raising after one comparison
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
    kern = HTypeHeatKernel(1.0, 1, 2)
    pts = [HeisenbergPoint((0.8 + 0.1j,), 0.5), HeisenbergPoint((1.4,), -1.0)]
    r1 = partial_radon(kern, (1.0, 0.0), pts)
    r2 = partial_radon(kern, (0.0, 1.0), pts)
    r3 = partial_radon(kern, (np.sqrt(0.5), np.sqrt(0.5)), pts)
    assert np.max(np.abs(r1 - r2)) < 1e-12 * np.max(np.abs(r1))
    assert np.max(np.abs(r1 - r3)) < 1e-12 * np.max(np.abs(r1))


def test_radon_batched_route_matches_pointwise_route():
    # a coarse shared nu rule keeps the pointwise side affordable; the two
    # routes must agree on it node for node
    pts = [HeisenbergPoint((0.8,), 0.4), HeisenbergPoint((0.3 + 0.5j,), -0.7)]
    fast = partial_radon(HTypeHeatKernel(1.0, 1, 2), (1.0, 0.0), pts,
                         nu_nodes=12)
    slow = partial_radon(lambda p: htype_heat_kernel(1.0, p), (1.0, 0.0), pts,
                         nu_nodes=12)
    assert np.max(np.abs(fast - slow)) < 1e-10 * np.max(np.abs(fast))


def test_radon_collapses_onto_the_heisenberg_kernel():
    v = np.linspace(0.5, 1.5, 3)
    t = np.array([-0.8, 0.0, 0.8])
    got = radon_heat_profile(1.0, v, t, n=1, k=2)
    want = heat_kernel_grid(1.0, v[:, None], t[None, :]).real
    assert np.max(np.abs(got - want) / want) < 1e-4


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
    kern = HTypeHeatKernel(1.0, 1, 2)
    assert partial_radon(kern, (1.0, 0.0), []).size == 0
    with pytest.raises(ValueError):
        partial_radon(kern, (0.7, 0.0), [HeisenbergPoint((1.0,), 0.0)])
    with pytest.raises(ValueError):
        partial_radon(kern, (1.0, 0.0, 0.0, 0.0), [HeisenbergPoint((1.0,), 0.0)])
    with pytest.warns(RuntimeWarning, match="not decayed"):
        partial_radon(kern, (1.0, 0.0), [HeisenbergPoint((1.0,), 0.0)],
                      half_width=0.5)


def test_gate_matches_the_heisenberg_decision():
    assert htype_gate(1.0, 1.0, 2.0)
    assert not htype_gate(4.0, 1.0, 2.0)     # ab = s0^2 sits outside
    assert not htype_gate(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        htype_gate(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        htype_gate(1.0, 1.0, 0.0)
