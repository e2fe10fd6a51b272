"""Hankel transform of order alpha, Gaussian-decay fitting, and the Hardy
decay gate.

The transform is H_alpha F(s) = int_0^inf F(r) J_alpha(rs)/(rs)^alpha
r^{2 alpha + 1} dr, summed over a composite Gauss-Legendre rule whose panels
resolve the oscillation of J_alpha(r s_max).  The kernel is written through
the normalized Bessel function, so s = 0 and negative arguments need no
special casing.

The sum G(s) = sum_j c_j Jt_alpha(r_j s) over N nodes is even and entire of
exponential type r_max in s.  On [-s_hi, s_hi], s_hi = max s, it is fixed to
rounding by its values at M = ceil((B + 11 B^{1/3})/2) + 2 non-negative
first-kind Chebyshev points, for the band B = r_max s_hi (`_chebyshev_size`).
So the transform has two routes.  An output grid of S <= 4M points is summed
on its own points, N S Bessel values.  A larger grid is summed at the M
points, N M values, and the M sums are carried to the grid by barycentric
interpolation in s^2 (`_even_interpolation`).  The error model of both is in
`hankel_transform`.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import (finite_array, finite_result, integer, on_nodes, order, positive, real,
                      shapes, vector)
from .grids import RadialProfile
from .quadrature import gauss_panels, warn_truncated
from .specfun import bessel_j_tilde


class DegenerateFitError(ValueError):
    """Decay fit had too few usable nodes or produced a nonpositive rate."""


@dataclass(frozen=True)
class HankelPlan:
    alpha: float
    r_nodes: np.ndarray
    r_weights: np.ndarray

    def __post_init__(self):
        order("Hankel order alpha", self.alpha, -0.5)
        r = vector("r_nodes", self.r_nodes, nonnegative=True, increasing=True)
        w = finite_array("r_weights", self.r_weights, nonnegative=True)
        shapes(("r_weights", "r_nodes"), w, r)
        object.__setattr__(self, "r_nodes", r)
        object.__setattr__(self, "r_weights", w)


def hankel_plan(alpha, r_max=8.0, s_max=10.0):
    """Plan with panel width at most a half-period of J_alpha(r s_max)."""
    positive("r_max", r_max)
    real("s_max", s_max)
    panels = max(8, int(np.ceil(r_max * max(s_max, 1.0) / np.pi)))
    nodes, weights = gauss_panels(0.0, r_max, panels)
    return HankelPlan(alpha, nodes, weights)


def _chebyshev_size(band):
    """Points M of the even interpolant at band B = r_max s_hi.

    The Chebyshev coefficients of cos(B x) on [-1, 1] are 2 |J_k(B)|, and the
    Poisson integral makes those of Jt_alpha(B x), alpha > -1/2, no larger
    relative to its peak, so the interpolant in 2M first-kind points is off by
    at most 4 sum_{k >= 2M} |J_k(B)| of the peak.  M is the smallest count with
    that tail below 1e-16 on B in [1e-3, 2000], with at most 2 to spare.
    """
    return math.ceil((band + 11.0 * band ** (1.0 / 3.0)) / 2.0) + 2


def _chebyshev_points(m):
    """The m positive ones of the 2m first-kind Chebyshev points of [-1, 1],
    x_k = cos theta_k for theta_k = (2k + 1) pi / 4m, and the barycentric
    weights (-1)^k sin 2 theta_k of the even interpolant, which folds the
    mirror pair (x_k, -x_k) into one term w_k / (x^2 - x_k^2)."""
    k = np.arange(m)
    theta = (2 * k + 1) * (np.pi / (4 * m))
    return np.cos(theta), (-1.0) ** k * np.sin(2.0 * theta)


def _even_interpolation(x, nodes, weights):
    """(len(x), M) matrix taking values at the nodes to the even barycentric
    interpolant at x in [0, 1]; an x equal to a node takes its value."""
    d = (x[:, None] - nodes) * (x[:, None] + nodes)
    hit = d == 0.0
    d[hit] = 1.0
    c = weights / d
    rows = hit.any(axis=1)
    c[rows] = hit[rows]
    return c / c.sum(axis=1, keepdims=True)


def hankel_transform(plan, F, s_grid):
    """Transform a profile sampled on the plan's nodes; F may be complex.

    Returns a RadialProfile on s_grid.  A truncation warning fires when the
    integrand's envelope |F| r^{2 alpha + 1} has not decayed at r_max.

    Routes: see the module docstring.  The direct sum stays at S <= 4M,
    where the saved Bessel values do not reliably pay for the S x M
    interpolation matrix on small plans.  At r_max = 9, s_hi = 5 and
    S = 300, M = 45 and the interpolated route takes 6.7 times fewer Bessel
    values.

    Error model: the interpolant's truncation is below 1e-16 of the scale
    2^{-alpha} sum_j |c_j| / Gamma(alpha + 1), c_j = w_j r_j^{2 alpha + 1}
    F_j, which bounds max|G| and sets the direct sum's rounding.  The
    interpolation adds the rounding of the M sums times the Lebesgue
    constant, (2/pi) log 2M + 1 (3.9 at M = 45).  Both routes carry the
    kernel's conditioning in s, about eps r_max s_hi relative to that scale.
    So where G does not cancel far below the scale, the interpolated route is
    accurate relative to max|G|.
    """
    vals = finite_array("values of F", F.values if isinstance(F, RadialProfile) else F)
    r = plan.r_nodes
    shapes(("values of F", "the plan's nodes"), vals, r)
    if isinstance(F, RadialProfile):
        on_nodes("radii of F", F.r, r, "the plan's")
    alpha = plan.alpha
    power = r ** (2 * alpha + 1)
    # |Jt_a| peaks at 0, so |F| r^{2 alpha + 1} bounds the integrand at every s
    envelope = np.abs(vals) * power
    warn_truncated("profile has not decayed at r_max; transform is truncated",
                   float(envelope[-1]), float(np.max(envelope)), 1e-12)
    s = vector("s_grid", s_grid, nonnegative=True, increasing=True)
    s_hi = s.max(initial=0.0)
    # an r s past double range, or a Bessel value there, is non-finite: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        band = r[-1] * s_hi
        # M > B / 2, so a band of S or more (inf too) stays on the direct sum
        m = _chebyshev_size(band) if band < s.size else s.size
        interpolate = s.size > 4 * m
        if interpolate:
            nodes, weights = _chebyshev_points(m)
        # J_a(rs)/(rs)^a = 2^{-a} Jt_a(rs); Jt handles s = 0 and s < 0 (even)
        kernel = 2.0 ** (-alpha) * bessel_j_tilde(alpha, np.outer(r, s_hi * nodes if interpolate
                                                                  else s))
        sums = (plan.r_weights * power * vals) @ kernel
    if interpolate:
        sums = _even_interpolation(s / s_hi, nodes, weights) @ sums
    finite_result("the transform on s_grid", sums)
    return RadialProfile(s, sums)


@dataclass(frozen=True)
class DecayFit:
    C: float
    a: float
    residual: float
    window: tuple


def fit_gaussian_decay(F, window=None):
    """Least-squares fit of log|F| against (1, r^2) over a radial window.

    Returns DecayFit with amplitude C, rate a (|F| ~ C e^{-a r^2}) and the
    rms log-domain residual.  Default window: outer third of the grid.
    """
    r = np.asarray(F.r, dtype=float)
    vals = np.abs(np.asarray(F.values))
    if window is None:
        window = (r[0] + 2.0 * (r[-1] - r[0]) / 3.0, r[-1])
    window = vector("window", window, increasing=True)
    integer("length of window", window.size, allowed=(2,))
    lo, hi = window
    mask = (r >= lo) & (r <= hi) & (vals > 0) & np.isfinite(vals)
    if int(mask.sum()) < 8:
        raise DegenerateFitError("fewer than 8 usable nodes in the fit window")
    x = r[mask] ** 2
    y = np.log(vals[mask])
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = coef
    a = -slope
    if a <= 0:
        raise DegenerateFitError(f"fitted rate is nonpositive ({a:.3g})")
    residual = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return DecayFit(C=float(np.exp(intercept)), a=float(a),
                    residual=residual, window=(float(lo), float(hi)))


_HARDY_TOL = 1e-9


def _log4p(rates, over=()):
    """log 4P for P = prod(rates) / prod(over), a sum of logs so that no product
    overflows; -inf at a zero rate."""
    if 0 in rates:
        return -math.inf
    return math.log(4.0) + sum(map(math.log, rates)) - sum(map(math.log, over))


def _verdict(rates, over=()):
    """Hardy's test of P = prod(rates) / prod(over) against 1/4: 'critical' where
    |log 4P| <= 4e-9 (P = 1/4 within 1e-9); the rule of every gate."""
    log4p = _log4p(rates, over)
    if abs(log4p) <= 4.0 * _HARDY_TOL:
        return "critical"
    return "supercritical" if log4p > 0 else "subcritical"


def _margin(margin, rates, over=()):
    """A gate's margin P - 1/4 as its own formula gave it where that is finite,
    else from the log sum of P (the formula left double range), inf where P does."""
    if math.isfinite(margin):
        return margin
    try:
        return math.exp(_log4p(rates, over) - math.log(4.0)) - 0.25
    except OverflowError:
        return math.inf


def hardy_gate(a, b):
    """Classify a Gaussian decay pair: 'supercritical' (ab > 1/4, only the
    zero profile is admissible), 'critical' (ab = 1/4 within 1e-9), else
    'subcritical'."""
    positive("decay rate a", a)
    positive("decay rate b", b)
    return _verdict((a, b))
