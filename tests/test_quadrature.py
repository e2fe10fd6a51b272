"""Quadrature helpers."""

import math

import numpy as np
import pytest
from scipy.special import j0

from heisenkit import quadrature
from heisenkit.quadrature import (
    QuadratureError,
    adaptive_quad,
    envelope_cutoff,
    even_trapezoid,
    gauss_panels,
    trapezoid_weights,
)


def test_gauss_panels_integrate_polynomials_exactly():
    # order-m Gauss is exact through degree 2m - 1 on each panel, one panel too
    for panels, order in ((4, 8), (1, 12)):
        nodes, weights = gauss_panels(-1.0, 3.0, panels, order)
        for deg in (0, 3, 10, 15):
            got = float(weights @ nodes ** deg)
            want = (3.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
            assert got == pytest.approx(want, rel=1e-13)
        assert nodes.size == weights.size == panels * order
    with pytest.raises(ValueError):
        gauss_panels(0.0, 1.0, 0)


def _gaussian_cosine(a, b):
    """Factors of e^{-a x^2} cos(b x) for sorted a > 0, and each row's
    cutoff (e^{-a x^2} < 1e-18) and closed form on every (a, b) pair."""
    def factors(x, p):
        return np.exp(-np.outer(a[:p], x * x)), np.cos(np.outer(b, x))

    cutoffs = np.sqrt(18.0 * math.log(10.0) / a)
    exact = 0.5 * np.sqrt(math.pi / a)[:, None] * np.exp(-np.square(b)[None, :] / (4.0 * a[:, None]))
    return factors, cutoffs, exact


def test_even_trapezoid_integrates_even_analytic_integrands(monkeypatch):
    # int_0^inf e^{-a x^2} cos(b x) dx = sqrt(pi / a) e^{-b^2 / 4a} / 2
    a = np.array([0.25, 0.5, 1.0, 4.0, 16.0])
    b = np.array([0.0, 1.5, 3.0])
    factors, cutoffs, exact = _gaussian_cosine(a, b)
    pa, pb = np.repeat(np.arange(a.size), b.size), np.tile(np.arange(b.size), a.size)
    product = even_trapezoid(0.1, cutoffs, factors, pa, pb, 1e-9)
    assert np.max(np.abs(product - exact.ravel())) < 1e-15 * np.max(exact)
    # scattered points sum every row to the last cutoff
    ia, ib = np.array([4, 0, 2]), np.array([1, 2, 0])
    scattered = even_trapezoid(0.1, cutoffs, factors, ia, ib, 1e-9)
    assert np.max(np.abs(scattered - exact[ia, ib])) < 1e-15 * np.max(exact)
    # a band for every cutoff, and chunks of a few nodes, give the same sums
    monkeypatch.setattr(quadrature, "_BAND_ENTRIES", 1)
    monkeypatch.setattr(quadrature, "_TABLE_BLOCK", 24)
    assert len(quadrature._bands(2 * np.ceil(cutoffs / 0.1).astype(int))) == a.size
    banded = even_trapezoid(0.1, cutoffs, factors, pa, pb, 1e-9)
    assert np.max(np.abs(banded - product)) < 1e-15 * np.max(exact)
    assert even_trapezoid(0.1, cutoffs, factors, np.array([], dtype=int),
                          np.array([], dtype=int), 1e-9).size == 0


def test_even_trapezoid_compares_the_rule_with_the_rule_of_twice_its_step():
    # at step 2 the two rules of e^{-x^2} cos(3x) differ at 1e-3
    factors, cutoffs, _ = _gaussian_cosine(np.array([1.0]), np.array([3.0]))
    with pytest.raises(QuadratureError, match=r"failed to converge: at \d+ nodes the "
                                              r"coarse/fine gap is .* x rtol"):
        even_trapezoid(2.0, cutoffs, factors, np.array([0]), np.array([0]), 1e-9)
    # e^{-x^2} cos(40x) is e^{-400} / 2: every rule reads round-off only
    factors, cutoffs, _ = _gaussian_cosine(np.array([1.0]), np.array([40.0]))
    with pytest.raises(QuadratureError, match="lies within the round-off of the sums"):
        even_trapezoid(0.01, cutoffs, factors, np.array([0]), np.array([0]), 1e-9)


def test_even_trapezoid_refuses_a_rule_past_its_node_budget_before_building_it():
    def factors(x, p):
        raise AssertionError("no node may be evaluated")

    with pytest.raises(QuadratureError, match="would take 2e\\+12 nodes"):
        even_trapezoid(1e-12, np.array([1.0]), factors, np.array([0]), np.array([0]), 1e-9)


def _softplus(c):
    """The map lam = c log(1 + e^{u/c}) of the u line onto the half line, as
    (lam, lam'), and its inverse."""
    def mapping(u):
        return c * np.log1p(np.exp(u / c)), 1.0 / (1.0 + np.exp(-u / c))

    def inverse(lam):
        return lam + c * np.log(-np.expm1(-lam / c))

    return mapping, inverse


def test_mapped_trapezoid_integrates_odd_integrands_on_the_half_line(monkeypatch):
    # int_0^inf lam J_0(lam rho) e^{-a lam^2} dlam = e^{-rho^2 / 4a} / (2a),
    # with lam J_0 odd in lam
    a = np.array([0.25, 0.5, 1.0, 4.0, 16.0])
    rho = np.array([0.0, 1.5, 3.0])

    def factors(lam, p):
        return np.exp(-np.outer(a[:p], lam * lam)), lam * j0(np.outer(rho, lam))

    exact = np.exp(-np.square(rho)[None, :] / (4.0 * a[:, None])) / (2.0 * a[:, None])
    mapping, inverse = _softplus(1.0)
    cutoffs = inverse(np.sqrt(18.0 * math.log(10.0) / a))
    # lam lam' ~ e^{2u} falls to 1e-18 at the start
    start = 0.5 * math.log(1e-18)

    def rule(ia, ib):
        return even_trapezoid(0.1, cutoffs, factors, ia, ib, 1e-9, start=start, mapping=mapping)

    pa, pb = np.repeat(np.arange(a.size), rho.size), np.tile(np.arange(rho.size), a.size)
    product = rule(pa, pb)
    assert np.max(np.abs(product - exact.ravel())) < 1e-15 * np.max(exact)
    ia, ib = np.array([4, 0, 2]), np.array([1, 2, 0])
    scattered = rule(ia, ib)
    assert np.max(np.abs(scattered - exact[ia, ib])) < 1e-15 * np.max(exact)
    monkeypatch.setattr(quadrature, "_BAND_ENTRIES", 1)
    monkeypatch.setattr(quadrature, "_TABLE_BLOCK", 24)
    assert len(quadrature._bands(2 * np.ceil((cutoffs - start) / 0.1).astype(int))) == a.size
    banded = rule(pa, pb)
    assert np.max(np.abs(banded - product)) < 1e-15 * np.max(exact)
    # in lam itself the half-line rule keeps an O(h^2) end error there
    with pytest.raises(QuadratureError, match="coarse/fine gap"):
        even_trapezoid(0.1, mapping(cutoffs)[0], factors, pa, pb, 1e-9)


def test_envelope_cutoff_lands_within_one_percent_above_the_crossing():
    # log envelope -x crosses log floor -10 at x = 10
    cut = envelope_cutoff(lambda x: -x, -10.0, 0.3)
    assert 10.0 <= cut <= 10.1
    # a start already below the floor is the cutoff
    assert envelope_cutoff(lambda x: -x, -10.0, 12.0) == 12.0
    with pytest.raises(QuadratureError, match="no usable frequency cutoff"):
        envelope_cutoff(lambda x: -1e-9 * x, -10.0, 1.0)


@pytest.mark.parametrize("s,n", [(1e155, 1), (1.3475111985467743e162, 2), (1e300, 1)])
def test_envelope_cutoff_bisects_brackets_below_the_normal_range(s, n):
    # (lam / sinh(s lam))^n from lam = 4 / s: the ends of the bracket
    # multiply to a subnormal number, or to 0 at s = 1e300
    def log_envelope(lam):
        x = s * lam
        return n * (math.log(lam) - x - math.log(-0.5 * math.expm1(-2.0 * x)))

    floor = math.log(1e-15) - n * math.log(s)
    cut = envelope_cutoff(log_envelope, floor, 4.0 / s)
    assert log_envelope(cut) <= floor < log_envelope(cut / 1.01)


def test_adaptive_quad_complex_and_oscillatory():
    got = adaptive_quad(lambda x: np.exp(1j * 5.0 * x) * np.exp(-x * x), -8.0, 8.0)
    want = math.sqrt(math.pi) * math.exp(-25.0 / 4.0)
    assert got.real == pytest.approx(want, rel=1e-10)
    assert abs(got.imag) < 1e-12


def test_adaptive_quad_raises_instead_of_warning():
    # cos(2000 x^2) on [0, 40] does not settle in 400 subdivisions
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: np.cos(2000.0 * x * x), 0.0, 40.0)


def test_trapezoid_weights_sum_and_nonuniform():
    t = np.array([0.0, 1.0, 3.0, 4.0])
    w = trapezoid_weights(t)
    assert w @ np.ones(4) == pytest.approx(4.0)
    # reproduces np.trapezoid on an arbitrary sample
    f = np.array([2.0, -1.0, 0.5, 3.0])
    assert w @ f == pytest.approx(np.trapezoid(f, t))
    with pytest.raises(ValueError):
        trapezoid_weights(np.array([1.0]))
